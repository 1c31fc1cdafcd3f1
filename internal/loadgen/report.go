package loadgen

import (
	"encoding/json"
	"os"
)

// Schema identifies the BENCH report format; bump it on a breaking
// layout change (the committed BENCH_10.json is decoded against this
// layout by the package's tests).
const Schema = "expertfind/bench/v1"

// Percentiles are latency quantiles in seconds.
type Percentiles struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
}

// PhaseResult is one phase's aggregate outcome.
type PhaseResult struct {
	Name string `json:"name"`
	// Mode is "closed": a fixed number of workers, each sending its
	// next request when the previous one completes.
	Mode        string `json:"mode"`
	Concurrency int    `json:"concurrency,omitempty"`
	Requests    uint64 `json:"requests"`
	// Errors maps taxonomy classes (shed, timeout, 4xx, 5xx,
	// transport) to counts; successes are Requests minus the
	// sum. Only nonzero classes appear.
	Errors map[string]uint64 `json:"errors,omitempty"`
	// Cache maps result-cache dispositions (hit, miss, coalesced) to
	// counts. Omitted entirely for uncached phases.
	Cache map[string]uint64 `json:"cache,omitempty"`
	// Index maps the segment store's structural counters (users, docs,
	// segments, seals, compactions, disk_bytes, peak_heap_bytes, ...)
	// to their value at the end of the phase. Only the scale run records
	// it.
	Index           map[string]uint64 `json:"index,omitempty"`
	DurationSeconds float64           `json:"duration_seconds"`
	QPS             float64           `json:"qps"`
	Latency         Percentiles       `json:"latency_seconds"`
}

// ErrorCount sums the phase's failures across all classes.
func (p PhaseResult) ErrorCount() uint64 {
	var n uint64
	for _, v := range p.Errors {
		n += v
	}
	return n
}

// CorpusInfo pins the corpus configuration a run measured.
type CorpusInfo struct {
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Candidates int     `json:"candidates,omitempty"`
	Documents  int     `json:"documents,omitempty"`
}

// DriverReport is one driver's phase results.
type DriverReport struct {
	// Driver is "inprocess": the scale run queries the facade directly.
	Driver string        `json:"driver"`
	Phases []PhaseResult `json:"phases"`
}

// Report is the machine-readable payload of a loadtest scale run's
// BENCH_10.run.json (and of the committed BENCH_10.json): one driver's
// phases over one pinned corpus and workload seed.
type Report struct {
	Schema string `json:"schema"`
	Bench  int    `json:"bench"`
	// GitRev and GeneratedAt are provenance stamps.
	GitRev      string         `json:"git_rev,omitempty"`
	GeneratedAt string         `json:"generated_at,omitempty"`
	Mode        string         `json:"mode"` // "real": wall-clock phases
	Seed        int64          `json:"seed"`
	Corpus      CorpusInfo     `json:"corpus"`
	Drivers     []DriverReport `json:"drivers"`
}

// WriteFile writes the report to path as stable, indented JSON
// (struct field order is fixed; the maps marshal with sorted keys).
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
