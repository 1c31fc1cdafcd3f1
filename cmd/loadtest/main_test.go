package main

import (
	"bytes"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"expertfind/internal/index"
	"expertfind/internal/loadgen"
)

func TestMain(m *testing.M) {
	log.SetOutput(io.Discard) // the gates narrate every verdict
	os.Exit(m.Run())
}

func TestParseFlags(t *testing.T) {
	// The scale run's whole surface: ten flags, one usage line each.
	var usage bytes.Buffer
	if code := run([]string{"-h"}, &usage); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	if n := strings.Count(usage.String(), "\n  -"); n != 10 {
		t.Errorf("%d registered flags, want 10:\n%s", n, usage.String())
	}

	o, err := parseFlags(nil, io.Discard)
	if err != nil || o.out != "BENCH_10.run.json" || o.scale != 10 {
		t.Fatalf("defaults: %+v, %v; want -out BENCH_10.run.json at -scale 10", o, err)
	}
	// Only an explicit -out reaches the committed record.
	if o, _ := parseFlags([]string{"-scale", "100", "-out", "BENCH_10.json"}, io.Discard); o.out != "BENCH_10.json" {
		t.Errorf("explicit -out ignored: %q", o.out)
	}
	if _, err := parseFlags([]string{"-scale-requests", "4"}, io.Discard); err != nil {
		t.Errorf("-scale-requests 4 refused: %v", err)
	}
	for _, args := range [][]string{
		{"-scale-requests", "3"},  // a replay sample of 0 rankings
		{"-scale-requests", "-1"}, // and below
		{"-scenario", "scale"},    // the scenario registry is gone
		{"-index-shards", "2"},    // the scale run never read it
	} {
		var stderr bytes.Buffer
		if code := run(args, &stderr); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
		if strings.HasPrefix(args[0], "-scale-requests") {
			if msg := strings.TrimSuffix(stderr.String(), "\n"); strings.Contains(msg, "\n") || !strings.Contains(msg, "-scale-requests") {
				t.Errorf("args %v: stderr %q, want one line naming the flag", args, msg)
			}
		}
	}
}

func TestScaleGate(t *testing.T) {
	const mb = 1 << 20
	store := func(segments, tombstones int, seals, compactions uint64) index.StoreStatus {
		return index.StoreStatus{
			Segments:   make([]index.SegmentStatus, segments),
			Tombstones: tombstones, Seals: seals, Compactions: compactions,
		}
	}
	cold, merged := store(5, 0, 5, 0), store(1, 0, 5, 1)
	cases := []struct {
		name             string
		scale            float64
		maxHeapMB        int
		users            int
		built, compacted index.StoreStatus
		peakHeap         uint64
		want             int
	}{
		{"healthy cold build", 10, 1024, 100_000, cold, merged, 512 * mb, 0},
		{"scale 100 over the user floor", 100, 1024, scaleUserGate, cold, merged, 512 * mb, 0},
		{"scale 100 under the user floor", 100, 1024, scaleUserGate - 1, cold, merged, 512 * mb, 1},
		{"user floor not applied below scale 100", 99, 1024, 10, cold, merged, 512 * mb, 0},
		{"cold build sealed once", 10, 1024, 100_000, store(1, 0, 1, 0), store(1, 0, 1, 0), 512 * mb, 1},
		{"reopened store of many segments compacts", 10, 1024, 100_000, store(4, 0, 0, 0), store(1, 0, 0, 1), 512 * mb, 0},
		{"reopened store in one segment has nothing to merge", 10, 1024, 100_000, store(1, 0, 0, 0), store(1, 0, 0, 0), 512 * mb, 0},
		{"one segment with tombstones must compact", 10, 1024, 100_000, store(1, 3, 0, 0), store(1, 3, 0, 0), 512 * mb, 1},
		{"no compaction over many segments", 10, 1024, 100_000, cold, store(5, 0, 5, 0), 512 * mb, 1},
		{"heap at the ceiling", 10, 1024, 100_000, cold, merged, 1024 * mb, 0},
		{"heap over the ceiling", 10, 1024, 100_000, cold, merged, 1024*mb + 1, 1},
		{"ceiling 0 disables", 10, 0, 100_000, cold, merged, 1 << 40, 0},
	}
	for _, c := range cases {
		o := &options{scale: c.scale, scaleMaxHeapMB: c.maxHeapMB}
		if got := scaleGate(o, c.users, c.built, c.compacted, c.peakHeap); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}

// TestScaleDirReuse runs the scale run twice on one -scale-dir: the
// second run reopens the corpus and the one compacted segment the
// first left behind, and must pass the gate all the same.
func TestScaleDirReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and builds a scale-1.2 corpus")
	}
	dir := t.TempDir()
	o, err := parseFlags([]string{
		"-scale", "1.2", "-scale-chunk-docs", "4000", "-segment-flush-docs", "3000",
		"-scale-dir", filepath.Join(dir, "work"), "-scale-requests", "8",
		"-out", filepath.Join(dir, "BENCH_10.run.json"),
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if code := runScale(o); code != 0 {
			t.Fatalf("run %d on the same -scale-dir: exit %d, want 0", i, code)
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
