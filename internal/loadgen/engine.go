package loadgen

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"expertfind/internal/telemetry"
)

// Phase is one segment of a closed-loop run. Phases execute in order
// against a shared request-sequence space, so request n carries the
// same need no matter how the run is phased.
type Phase struct {
	// Name labels the phase in the report ("warmup", "steady", ...).
	Name string
	// Requests bounds the phase: exactly this many sequence numbers —
	// a set that does not depend on goroutine scheduling — are served.
	Requests int
	// Concurrency is the closed-loop worker count (default 1).
	Concurrency int
}

func (p Phase) workers() int {
	if p.Concurrency <= 0 {
		return 1
	}
	return p.Concurrency
}

// Config wires a Runner.
type Config struct {
	// Workload supplies the need for each request sequence number.
	Workload *Workload
	// Target serves the requests.
	Target Target
	// Timeout bounds each request's context; zero means none.
	Timeout time.Duration
}

// latencyBuckets are the per-phase latency histogram bounds in
// seconds: 100µs to 10s, ten per decade.
var latencyBuckets = telemetry.LogBuckets(100e-6, 10, 10)

// Runner executes phases and aggregates per-phase results. A Runner
// owns a monotone request-sequence counter: re-running the same
// phases on a fresh Runner with the same workload replays the exact
// request stream.
type Runner struct {
	cfg      Config
	nextBase uint64
}

// NewRunner returns a runner over cfg.
func NewRunner(cfg Config) *Runner {
	return &Runner{cfg: cfg}
}

// phaseState aggregates one phase's measurements. All sinks are
// order-independent (atomic counters, histogram bucket counts), so the
// aggregate does not depend on how the workers interleave.
type phaseState struct {
	hist     *telemetry.Histogram
	classes  []atomic.Uint64  // indexed parallel to Classes
	cache    [3]atomic.Uint64 // hit, miss, coalesced
	executed atomic.Uint64
}

// cacheStatuses indexes phaseState.cache.
var cacheStatuses = [3]string{"hit", "miss", "coalesced"}

func newPhaseState() *phaseState {
	reg := telemetry.NewRegistry()
	return &phaseState{
		hist:    reg.Histogram("latency_seconds", "per-request latency", latencyBuckets),
		classes: make([]atomic.Uint64, len(Classes)),
	}
}

func classIndex(c Class) int {
	for i, k := range Classes {
		if k == c {
			return i
		}
	}
	return len(Classes) - 1
}

func (st *phaseState) record(res Result, lat time.Duration) {
	st.executed.Add(1)
	st.classes[classIndex(res.Class)].Add(1)
	for i, s := range cacheStatuses {
		if res.Cache == s {
			st.cache[i].Add(1)
			break
		}
	}
	st.hist.Observe(lat.Seconds())
}

// Run executes the phases in order and returns one result per phase.
func (r *Runner) Run(phases ...Phase) []PhaseResult {
	out := make([]PhaseResult, 0, len(phases))
	for _, p := range phases {
		out = append(out, r.runPhase(p))
	}
	return out
}

// doOne serves request seq and records its outcome and its latency
// from the send to completion.
func (r *Runner) doOne(st *phaseState, seq uint64) {
	ctx := context.Background()
	if r.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.Timeout)
		defer cancel()
	}
	start := time.Now()
	res := r.cfg.Target.Do(ctx, r.cfg.Workload.Need(seq))
	st.record(res, time.Since(start))
}

func (r *Runner) runPhase(p Phase) PhaseResult {
	st := newPhaseState()
	base := r.nextBase
	start := time.Now()

	r.closedLoop(p, st, base)

	executed := st.executed.Load()
	r.nextBase = base + executed
	return r.result(p, st, executed, time.Since(start))
}

// closedLoop runs Concurrency workers, each issuing its next request
// the moment the previous one completes. Workers claim slots from a
// phase-local counter so exactly Requests sequence numbers — a
// deterministic set — are executed.
func (r *Runner) closedLoop(p Phase, st *phaseState, base uint64) {
	var slot atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := slot.Add(1) - 1
				if s >= int64(p.Requests) {
					return
				}
				r.doOne(st, base+uint64(s))
			}
		}()
	}
	wg.Wait()
}

func (r *Runner) result(p Phase, st *phaseState, executed uint64, dur time.Duration) PhaseResult {
	res := PhaseResult{
		Name:        p.Name,
		Mode:        "closed",
		Concurrency: p.workers(),
		Requests:    executed,
		Errors:      map[string]uint64{},
	}
	for i, c := range Classes {
		if c == ClassOK {
			continue
		}
		if n := st.classes[i].Load(); n > 0 {
			res.Errors[string(c)] = n
		}
	}
	for i, s := range cacheStatuses {
		if n := st.cache[i].Load(); n > 0 {
			if res.Cache == nil {
				res.Cache = map[string]uint64{}
			}
			res.Cache[s] = n
		}
	}
	res.DurationSeconds = dur.Seconds()
	if dur > 0 {
		res.QPS = float64(executed) / dur.Seconds()
	}
	d := st.hist.Snapshot()
	res.Latency = Percentiles{
		P50:  d.Quantile(0.50),
		P95:  d.Quantile(0.95),
		P99:  d.Quantile(0.99),
		P999: d.Quantile(0.999),
	}
	return res
}
