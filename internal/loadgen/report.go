package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
)

// Schema identifies the BENCH report format; bump on breaking layout
// changes so a reader fails loudly instead of misreading fields.
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
	// to their value at the end of the phase. Only the scale scenario
	// records it.
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
	// Driver is "inprocess" (core.Finder) or "http" (/v1/find).
	Driver string        `json:"driver"`
	Phases []PhaseResult `json:"phases"`
}

// Phase returns the named phase, or nil.
func (d *DriverReport) Phase(name string) *PhaseResult {
	for i := range d.Phases {
		if d.Phases[i].Name == name {
			return &d.Phases[i]
		}
	}
	return nil
}

// Report is the machine-readable payload of a loadtest scenario's
// BENCH_<n>.run.json (and of the committed BENCH_10.json): one driver's
// phases over one pinned corpus and workload seed.
type Report struct {
	Schema string `json:"schema"`
	Bench  int    `json:"bench"`
	// GitRev and GeneratedAt are provenance stamps; the harness omits
	// them with -stamp=false.
	GitRev      string         `json:"git_rev,omitempty"`
	GeneratedAt string         `json:"generated_at,omitempty"`
	Mode        string         `json:"mode"` // "real": wall-clock phases
	Seed        int64          `json:"seed"`
	Corpus      CorpusInfo     `json:"corpus"`
	Drivers     []DriverReport `json:"drivers"`
}

// Driver returns the named driver's report, or nil.
func (r *Report) Driver(name string) *DriverReport {
	for i := range r.Drivers {
		if r.Drivers[i].Driver == name {
			return &r.Drivers[i]
		}
	}
	return nil
}

// Stripped returns a copy with the provenance stamps cleared — the
// canonical form for determinism diffs.
func (r Report) Stripped() Report {
	r.GitRev = ""
	r.GeneratedAt = ""
	return r
}

// Marshal renders the report as stable, indented JSON (struct field
// order is fixed; the error maps marshal with sorted keys).
func (r *Report) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	b, err := r.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadReport loads and validates a BENCH report.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("loadgen: parse %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("loadgen: %s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}
