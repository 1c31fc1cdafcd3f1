package main

import (
	"bytes"
	"io"
	"log"
	"os"
	"strings"
	"testing"

	"expertfind/internal/loadgen"
)

func TestMain(m *testing.M) {
	log.SetOutput(io.Discard) // the gates narrate every verdict
	os.Exit(m.Run())
}

func TestScenarioSelector(t *testing.T) {
	for _, args := range [][]string{nil, {"-scenario", "topk"}, {"-scenario", ""}} {
		var stderr bytes.Buffer
		if code := run(args, &stderr); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
		msg := strings.TrimSuffix(stderr.String(), "\n")
		if strings.Contains(msg, "\n") || !strings.Contains(msg, "scatter, ingest, scale") {
			t.Errorf("args %v: stderr %q, want one line listing the three scenarios", args, msg)
		}
	}
	for name, wantOut := range map[string]string{
		"scatter": "BENCH_6.run.json", "ingest": "BENCH_9.run.json", "scale": "BENCH_10.run.json",
	} {
		o, err := parseFlags([]string{"-scenario", name}, io.Discard)
		if err != nil {
			t.Fatalf("-scenario %s: %v", name, err)
		}
		if o.scenario.name != name || o.out != wantOut {
			t.Errorf("-scenario %s: selected %q writing %q, want %q", name, o.scenario.name, o.out, wantOut)
		}
	}
	// Only an explicit -out reaches a committed record.
	if o, _ := parseFlags([]string{"-scenario", "scale", "-scale", "100", "-out", "BENCH_10.json"}, io.Discard); o.out != "BENCH_10.json" {
		t.Errorf("explicit -out ignored: %q", o.out)
	}
}

func TestScaleGate(t *testing.T) {
	const mb = 1 << 20
	cases := []struct {
		name               string
		scale              float64
		maxHeapMB          int
		users              int
		cold               bool
		seals, compactions uint64
		peakHeap           uint64
		want               int
	}{
		{"healthy cold build", 10, 1024, 100_000, true, 5, 1, 512 * mb, 0},
		{"scale 100 over the user floor", 100, 1024, scaleUserGate, true, 33, 1, 512 * mb, 0},
		{"scale 100 under the user floor", 100, 1024, scaleUserGate - 1, true, 33, 1, 512 * mb, 1},
		{"user floor not applied below scale 100", 99, 1024, 10, true, 2, 1, 512 * mb, 0},
		{"cold build sealed once", 10, 1024, 100_000, true, 1, 1, 512 * mb, 1},
		{"reopened store never seals", 10, 1024, 100_000, false, 0, 1, 512 * mb, 0},
		{"no compaction", 10, 1024, 100_000, true, 5, 0, 512 * mb, 1},
		{"heap at the ceiling", 10, 1024, 100_000, true, 5, 1, 1024 * mb, 0},
		{"heap over the ceiling", 10, 1024, 100_000, true, 5, 1, 1024*mb + 1, 1},
		{"ceiling 0 disables", 10, 0, 100_000, true, 5, 1, 1 << 40, 0},
	}
	for _, c := range cases {
		o := &options{scale: c.scale, scaleMaxHeapMB: c.maxHeapMB}
		if got := scaleGate(o, c.users, c.cold, c.seals, c.compactions, c.peakHeap); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}

func TestScatterPhaseGate(t *testing.T) {
	cases := []struct {
		name     string
		requests uint64
		errors   map[string]uint64
		want     int
	}{
		{"clean", 150, nil, 0},
		{"shed and timeout tolerated", 150, map[string]uint64{"shed": 3, "timeout": 2}, 0},
		{"4xx", 150, map[string]uint64{"4xx": 1}, 1},
		{"5xx", 150, map[string]uint64{"5xx": 1}, 1},
		{"transport", 150, map[string]uint64{"transport": 1}, 1},
		{"nothing succeeded", 10, map[string]uint64{"shed": 10}, 1},
		{"nothing ran", 0, nil, 1},
	}
	for _, c := range cases {
		p := &loadgen.PhaseResult{Name: c.name, Requests: c.requests, Errors: c.errors}
		if got := scatterPhaseGate(p); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAssemblyMissing(t *testing.T) {
	type span = struct {
		Process string `json:"process"`
		Name    string `json:"name"`
	}
	full := []span{
		{"coordinator", "gather stats"}, {"coordinator", "gather find"}, {"coordinator", "merge"},
		{"shard0", "find"}, {"shard2", "find"},
	}
	without := func(name string) []span {
		var out []span
		for _, sp := range full {
			if sp.Name != name {
				out = append(out, sp)
			}
		}
		return out
	}
	cases := []struct {
		name string
		view assembledView
		want string // substring of the complaint; "" = satisfied
	}{
		{"complete", assembledView{ID: "rid", ShardProcesses: 2, Spans: full}, ""},
		{"wrong id", assembledView{ID: "other", ShardProcesses: 2, Spans: full}, "timeline id"},
		{"too few shard processes", assembledView{ID: "rid", ShardProcesses: 1, Spans: full}, "shard processes"},
		{"no gather stats", assembledView{ID: "rid", ShardProcesses: 2, Spans: without("gather stats")}, `"gather stats"`},
		{"no gather find", assembledView{ID: "rid", ShardProcesses: 2, Spans: without("gather find")}, `"gather find"`},
		{"no merge", assembledView{ID: "rid", ShardProcesses: 2, Spans: without("merge")}, `"merge"`},
		{"no shard spans", assembledView{ID: "rid", ShardProcesses: 2, Spans: without("find")}, "no shard-process spans"},
	}
	for _, c := range cases {
		got := assemblyMissing(c.view, "rid", 2)
		if (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}

func TestPercentilesOf(t *testing.T) {
	if got := percentilesOf(nil); got != (loadgen.Percentiles{}) {
		t.Errorf("no samples: %+v, want zero", got)
	}
	if got := percentilesOf([]float64{0.25}); got != (loadgen.Percentiles{P50: 0.25, P95: 0.25, P99: 0.25, P999: 0.25}) {
		t.Errorf("one sample: %+v", got)
	}
	// 20 samples 1..20, shuffled: rank q*(n-1) truncated.
	lat := make([]float64, 20)
	for i := range lat {
		lat[i] = float64((i*7)%20 + 1)
	}
	in := append([]float64(nil), lat...)
	if got := percentilesOf(lat); got != (loadgen.Percentiles{P50: 10, P95: 19, P99: 19, P999: 19}) {
		t.Errorf("20 samples: %+v", got)
	}
	for i := range lat {
		if lat[i] != in[i] {
			t.Fatal("percentilesOf reordered its input")
		}
	}
}
