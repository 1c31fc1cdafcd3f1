package loadgen

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedReportDecodes holds the writer and the one committed
// record to the same layout: BENCH_10.json must decode into Report with
// no field left over, carry the current Schema, and be exactly what
// WriteFile writes for the decoded value.
func TestCommittedReportDecodes(t *testing.T) {
	committed, err := os.ReadFile("../../BENCH_10.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(committed))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("BENCH_10.json does not decode into Report: %v", err)
	}
	if rep.Schema != Schema || rep.Bench != 10 {
		t.Fatalf("BENCH_10.json: schema %q bench %d, want %q bench 10", rep.Schema, rep.Bench, Schema)
	}
	if len(rep.Drivers) != 1 || len(rep.Drivers[0].Phases) == 0 {
		t.Fatalf("BENCH_10.json: %d drivers, want one with phases", len(rep.Drivers))
	}
	path := filepath.Join(t.TempDir(), "BENCH_10.run.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if written, err := os.ReadFile(path); err != nil || !bytes.Equal(written, committed) {
		t.Fatalf("WriteFile of the decoded record differs from BENCH_10.json (err %v)", err)
	}
}
