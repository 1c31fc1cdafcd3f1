package main

import (
	"bytes"
	"flag"
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
		{"ingest × stream", "-ingest-interval 1s -stream-corpus c.gz -segment-dir d", "-ingest-interval requires the generated corpus"},
		{"ingest × shard", "-ingest-interval 1s -shard-id 0 -shard-count 2", "-ingest-interval requires the generated corpus"},
		{"shard id past the topology", "-shard-id 3 -shard-count 3", "-shard-id 3 outside a topology of -shard-count 3"},
		{"negative shard id", "-shard-id -1 -shard-count 3", "-shard-id -1 outside"},
		{"shard id in an explicit empty topology", "-shard-id 1 -shard-count 0", "-shard-id 1 outside a topology of -shard-count 0"},
		{"negative topology", "-shard-count -2", "outside a topology of -shard-count -2"},
		{"stream without dir", "-stream-corpus c.gz", "-stream-corpus requires -segment-dir"},
		{"two sources", "-stream-corpus c.gz -segment-dir d -corpus c.json.gz", "two sources"},
		{"idle -segment-dir", "-segment-dir d", "-segment-dir has no effect without -stream-corpus"},
		{"idle -segment-flush-docs", "-segment-flush-docs 9", "-segment-flush-docs has no effect without -stream-corpus"},
		{"idle -segment-max", "-corpus c.json.gz -segment-max 4", "-segment-max has no effect without -stream-corpus"},
		{"idle -shard-id", "-shard-id 0", "-shard-id has no effect without -shard-count"},
		{"idle -ingest-seed", "-ingest-seed 3", "-ingest-seed has no effect without -ingest-interval"},
		{"idle -ingest-adds", "-ingest-adds 3", "-ingest-adds has no effect without -ingest-interval"},
		{"idle -ingest-updates", "-ingest-updates 3", "-ingest-updates has no effect without -ingest-interval"},
		{"idle -ingest-removes", "-ingest-removes 3", "-ingest-removes has no effect without -ingest-interval"},
		{"idle -ingest-transient", "-ingest-transient 0.1", "-ingest-transient has no effect without -ingest-interval"},
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
	if b := o.open; b.Config.Seed != 1 || b.Config.Scale != 0.5 || b.CorpusPath != "" || b.StreamPath != "" ||
		b.SegmentDir != "" || b.ShardCount != 0 || o.ingestInterval != 0 {
		t.Errorf("defaults: %+v", o.open)
	}

	// Newly accepted: a shard serving its slice of a stream corpus from
	// its own segment directory.
	o = parse("-stream-corpus c.gz -segment-dir d -segment-flush-docs 9000 -segment-max 4 -shard-id 1 -shard-count 3")
	if b := o.open; b.StreamPath != "c.gz" || b.SegmentDir != "d" || b.Stream.FlushDocs != 9000 ||
		b.Stream.MaxSegments != 4 || b.ShardID != 1 || b.ShardCount != 3 {
		t.Errorf("stream × shard: %+v", o.open)
	}

	o = parse("-corpus c.json.gz -index-shards 3 -shard-id 0 -shard-count 1")
	if b := o.open; b.CorpusPath != "c.json.gz" || b.Config.IndexShards != 3 || b.ShardCount != 1 {
		t.Errorf("corpus × shard: %+v", o.open)
	}

	o = parse("-seed 4 -scale 0.1 -ingest-interval 300ms -ingest-seed 5 -ingest-adds 1 -ingest-updates 6 -ingest-removes 2 -ingest-transient 0.2 -log-stamp=false")
	if o.ingestInterval != 300*time.Millisecond || o.ingestChurn.Seed != 5 || o.ingestFaults.Seed != 5 ||
		o.ingestChurn.Adds != 1 || o.ingestChurn.Updates != 6 || o.ingestChurn.Removes != 2 ||
		o.ingestFaults.TransientRate != 0.2 || !o.log.NoStamp {
		t.Errorf("ingest: %+v %+v", o.ingestChurn, o.ingestFaults)
	}
}

func TestFlagCountAndHelp(t *testing.T) {
	var stderr bytes.Buffer
	if _, err := parseFlags([]string{"-h"}, &stderr); err != flag.ErrHelp {
		t.Fatalf("-h: %v", err)
	}
	if n := strings.Count(stderr.String(), "\n  -"); n != 33 {
		t.Errorf("serve registers %d flags, want 33", n)
	}
	for name, need := range needs {
		for _, f := range []string{name, need} {
			if !strings.Contains(stderr.String(), "\n  -"+f+" ") && !strings.Contains(stderr.String(), "\n  -"+f+"\n") {
				t.Errorf("needs names -%s, which serve does not register", f)
			}
		}
	}
}
