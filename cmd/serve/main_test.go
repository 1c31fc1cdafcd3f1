package main

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseFlagsRefusals(t *testing.T) {
	for _, c := range []struct {
		name string
		args string
		want string // substring of the one stderr line
	}{
		{"ingest × corpus", "-ingest-interval 1s -corpus c.json.gz", "-ingest-interval requires the generated corpus"},
		{"ingest × corpus × store", "-ingest-interval 1s -corpus c.gz -segment-dir d", "-ingest-interval requires the generated corpus"},
		{"ingest × store", "-ingest-interval 1s -segment-dir d", "-ingest-interval requires the generated corpus"},
		{"ingest × shard", "-ingest-interval 1s -shard-id 0 -shard-count 2", "-ingest-interval requires the generated corpus"},
		{"shard id past the topology", "-shard-id 3 -shard-count 3", "-shard-id 3 outside a topology of -shard-count 3"},
		{"negative shard id", "-shard-id -1 -shard-count 3", "-shard-id -1 outside"},
		{"shard id in an explicit empty topology", "-shard-id 1 -shard-count 0", "-shard-id 1 outside a topology of -shard-count 0"},
		{"negative topology", "-shard-count -2", "outside a topology of -shard-count -2"},
		{"idle -segment-flush-docs", "-segment-flush-docs 9", "-segment-flush-docs has no effect without -segment-dir"},
		{"idle -segment-max", "-corpus c.json.gz -segment-max 4", "-segment-max has no effect without -segment-dir"},
		{"idle -shard-id", "-shard-id 0", "-shard-id has no effect without -shard-count"},
		{"idle -shard-timeout", "-shard-timeout 1s", "-shard-timeout has no effect without -shards"},
		{"idle -hedge-disable", "-hedge-disable", "-hedge-disable has no effect without -shards"},
		{"idle -health-interval", "-health-interval 1s", "-health-interval has no effect without -shards"},
		{"empty -shards", "-shards=", `-shards element 0 ("")`},
		{"blank -shards element", "-shards http://a:1,,http://b:2", `-shards element 1 ("")`},
		{"trailing comma in -shards", "-shards http://a:1,", `-shards element 1 ("")`},
		{"-shards without a scheme", "-shards a:8081,b:8082", `-shards element 0 ("a:8081")`},
		{"-shards without a host", "-shards http://", `-shards element 0 ("http://")`},
	} {
		var stderr bytes.Buffer
		o, err := parseFlags(strings.Fields(c.args), &stderr)
		if err == nil {
			t.Errorf("%s: %q accepted: %+v", c.name, c.args, o.open)
			continue
		}
		msg := strings.TrimSuffix(stderr.String(), "\n")
		if strings.Contains(msg, "\n") || !strings.HasPrefix(msg, "serve: ") || !strings.Contains(msg, c.want) {
			t.Errorf("%s: stderr %q, want one \"serve: \" line containing %q", c.name, msg, c.want)
		}
	}
}

// TestShardsRefusesCorpusFlags: a coordinator loads no corpus, so every
// flag that configures one is refused beside -shards, never ignored.
func TestShardsRefusesCorpusFlags(t *testing.T) {
	values := map[string]string{
		"seed": "3", "scale": "0.1", "corpus": "c.json.gz",
		"segment-dir": "d", "segment-flush-docs": "9", "segment-max": "4", "segment-maintain": "1s",
		"index-shards": "2", "cache-size": "8", "shard-id": "0", "shard-count": "2",
		"ingest-interval": "1s",
	}
	if len(corpusOnly) != 12 || len(values) != len(corpusOnly) {
		t.Fatalf("corpusOnly lists %d flags, the test %d, want 12", len(corpusOnly), len(values))
	}
	for _, name := range corpusOnly {
		for _, args := range [][]string{
			{"-shards", "http://a:1,http://b:2", "-" + name, values[name]},
			{"-" + name + "=" + values[name], "-shards", "http://a:1"},
		} {
			var stderr bytes.Buffer
			if o, err := parseFlags(args, &stderr); err == nil {
				t.Errorf("%q accepted: %+v", args, o.coord.Shards)
				continue
			}
			want := "serve: -" + name + " configures a local corpus, and -shards serves none\n"
			if stderr.String() != want {
				t.Errorf("%q: stderr %q, want %q", args, stderr.String(), want)
			}
		}
	}
}

func TestParseFlagsAccepted(t *testing.T) {
	parse := func(args string) *options {
		t.Helper()
		var stderr bytes.Buffer
		o, err := parseFlags(strings.Fields(args), &stderr)
		if err != nil {
			t.Fatalf("%q refused: %v (%s)", args, err, stderr.String())
		}
		return o
	}

	o := parse("")
	if b := o.open; b.Config.Seed != 1 || b.Config.Scale != 0.5 || b.CorpusPath != "" ||
		b.SegmentDir != "" || b.ShardCount != 0 || o.ingestInterval != 0 || o.coord.Shards != nil {
		t.Errorf("defaults: %+v", o.open)
	}

	// Coordinator mode: the serving-surface flags apply, a trailing slash
	// is dropped, position is the shard id.
	o = parse("-shards http://h1:8081/,https://h2:8082 -shard-timeout 3s -hedge-disable -health-interval 250ms -max-concurrent 8 -debug -slo-latency 1s")
	if c := o.coord; !reflect.DeepEqual(c.Shards, []string{"http://h1:8081", "https://h2:8082"}) ||
		c.ShardTimeout != 3*time.Second || !c.NoHedge || c.HealthInterval != 250*time.Millisecond ||
		o.api.MaxConcurrent != 8 || !o.api.Debug || o.slo.Latency != time.Second {
		t.Errorf("coordinator: %+v %+v", o.coord, o.api)
	}
	o = parse("-shards http://h1:8081")
	if c := o.coord; len(c.Shards) != 1 || c.ShardTimeout != 2*time.Second || c.NoHedge || c.HealthInterval != time.Second {
		t.Errorf("coordinator defaults: %+v", o.coord)
	}

	// Source and container are independent: a shard serving its slice of
	// any corpus file from its own segment directory, and the generated
	// corpus in a segment store.
	o = parse("-corpus c.gz -segment-dir d -segment-flush-docs 9000 -segment-max 4 -shard-id 1 -shard-count 3")
	if b := o.open; b.CorpusPath != "c.gz" || b.SegmentDir != "d" || b.Stream.FlushDocs != 9000 ||
		b.Stream.MaxSegments != 4 || b.ShardID != 1 || b.ShardCount != 3 {
		t.Errorf("corpus × store × shard: %+v", o.open)
	}
	o = parse("-seed 4 -segment-dir d")
	if b := o.open; b.Config.Seed != 4 || b.CorpusPath != "" || b.SegmentDir != "d" {
		t.Errorf("generated × store: %+v", o.open)
	}

	o = parse("-corpus c.json.gz -index-shards 3 -shard-id 0 -shard-count 1")
	if b := o.open; b.CorpusPath != "c.json.gz" || b.Config.IndexShards != 3 || b.ShardCount != 1 {
		t.Errorf("corpus × shard: %+v", o.open)
	}

	o = parse("-seed 4 -scale 0.1 -ingest-interval 300ms -log-stamp=false")
	if o.ingestInterval != 300*time.Millisecond || !o.log.NoStamp {
		t.Errorf("ingest: %v", o.ingestInterval)
	}
}

func TestFlagCountAndHelp(t *testing.T) {
	var stderr bytes.Buffer
	if _, err := parseFlags([]string{"-h"}, &stderr); err != flag.ErrHelp {
		t.Fatalf("-h: %v", err)
	}
	if n := strings.Count(stderr.String(), "\n  -"); n != 28 {
		t.Errorf("serve registers %d flags, want 28", n)
	}
	registered := func(f string) bool {
		return strings.Contains(stderr.String(), "\n  -"+f+" ") || strings.Contains(stderr.String(), "\n  -"+f+"\n")
	}
	for name, need := range needs {
		if !registered(name) || !registered(need) {
			t.Errorf("needs maps -%s to -%s, and serve does not register both", name, need)
		}
	}
	for _, name := range corpusOnly {
		if !registered(name) {
			t.Errorf("corpusOnly names -%s, which serve does not register", name)
		}
	}
}
