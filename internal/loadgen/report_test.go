package loadgen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		Schema: Schema, Bench: 6, Mode: "real", Seed: 11,
		GitRev: "abc123", GeneratedAt: "2026-01-01T00:00:00Z",
		Corpus: CorpusInfo{Seed: 7, Scale: 0.1, Candidates: 20, Documents: 500},
		Drivers: []DriverReport{{
			Driver: "inprocess",
			Phases: []PhaseResult{
				{Name: "warmup", Mode: "closed", Concurrency: 4, Requests: 40, DurationSeconds: 0.1, QPS: 400, Latency: Percentiles{P50: 0.001, P95: 0.002, P99: 0.003, P999: 0.004}},
				{Name: "steady", Mode: "closed", Concurrency: 8, Requests: 200, DurationSeconds: 0.5, QPS: 400,
					Errors:  map[string]uint64{"shed": 3},
					Latency: Percentiles{P50: 0.001, P95: 0.002, P99: 0.003, P999: 0.004}},
			},
		}},
	}
}

func TestReportRoundtripAndStrip(t *testing.T) {
	rep := sampleReport()
	path := filepath.Join(t.TempDir(), "BENCH_6.run.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.Bench != 6 || got.GitRev != "abc123" {
		t.Fatalf("roundtrip lost fields: %+v", got)
	}
	st := got.Stripped()
	if st.GitRev != "" || st.GeneratedAt != "" {
		t.Errorf("Stripped kept stamps: %+v", st)
	}
	if got.GitRev == "" {
		t.Error("Stripped mutated the receiver")
	}
	p := got.Driver("inprocess").Phase("steady")
	if p == nil || p.Errors["shed"] != 3 || p.ErrorCount() != 3 {
		t.Fatalf("steady phase lost data: %+v", p)
	}
	if got.Driver("nope") != nil || got.Drivers[0].Phase("nope") != nil {
		t.Error("lookup of missing driver/phase should be nil")
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"schema":"other/v9"}`), 0o644)
	if _, err := ReadReport(bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("err = %v, want schema mismatch", err)
	}
	garbage := filepath.Join(dir, "garbage.json")
	os.WriteFile(garbage, []byte(`{{{`), 0o644)
	if _, err := ReadReport(garbage); err == nil {
		t.Fatal("garbage JSON accepted")
	}
	if _, err := ReadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
