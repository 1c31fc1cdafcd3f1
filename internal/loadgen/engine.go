package loadgen

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"expertfind/internal/resilience"
	"expertfind/internal/telemetry"
)

// Phase is one segment of a closed-loop run. Phases execute in order
// against a shared request-sequence space, so request n carries the
// same need no matter how the run is phased.
type Phase struct {
	// Name labels the phase in the report ("warmup", "steady", ...).
	Name string
	// Requests bounds the phase by request count. Count-bounded phases
	// are fully deterministic in simulation mode: the set of sequence
	// numbers processed does not depend on goroutine scheduling.
	Requests int
	// Duration bounds the phase by clock time instead, for real-time
	// runs (and the virtual-clock soak). Ignored when Requests > 0.
	Duration time.Duration
	// Concurrency is the closed-loop worker count (default 1).
	Concurrency int
}

func (p Phase) workers() int {
	if p.Concurrency <= 0 {
		return 1
	}
	return p.Concurrency
}

// ServiceModel maps a request to a simulated service time. When set,
// the runner is in simulation mode: recorded latency comes from the
// model (a pure function of the request, for reproducibility), not
// the wall clock, and the virtual clock advances by it.
type ServiceModel func(seq uint64, res Result) time.Duration

// Config wires a Runner.
type Config struct {
	// Clock is the time source. Virtual + Model = deterministic
	// simulation; RealClock (or nil) + no Model = wall-time measurement.
	Clock *resilience.Clock
	// Workload supplies the need for each request sequence number.
	Workload *Workload
	// Target serves the requests.
	Target Target
	// Model, when non-nil, switches to simulated service times.
	Model ServiceModel
	// Buckets are the latency histogram bounds in seconds; nil
	// selects LogBuckets(100µs, 10s, 10).
	Buckets []float64
	// Timeout bounds each request's context; zero means none.
	Timeout time.Duration
}

// Runner executes phases and aggregates per-phase results. A Runner
// owns a monotone request-sequence counter: re-running the same
// phases on a fresh Runner with the same workload replays the exact
// request stream.
type Runner struct {
	cfg      Config
	nextBase uint64
}

// NewRunner returns a runner over cfg, applying defaults: nil Clock
// means real time, nil Buckets the standard log-spaced ladder.
func NewRunner(cfg Config) *Runner {
	if cfg.Clock == nil {
		cfg.Clock = resilience.RealClock()
	}
	if cfg.Buckets == nil {
		cfg.Buckets = telemetry.LogBuckets(100e-6, 10, 10)
	}
	return &Runner{cfg: cfg}
}

// phaseState aggregates one phase's measurements. All sinks are
// order-independent (atomic sums, histogram bucket counts), so the
// aggregate is deterministic even though workers race.
type phaseState struct {
	hist     *telemetry.Histogram
	classes  []atomic.Uint64  // indexed parallel to Classes
	cache    [3]atomic.Uint64 // hit, miss, coalesced
	executed atomic.Uint64
	sumLat   atomic.Int64 // nanoseconds
}

// cacheStatuses indexes phaseState.cache.
var cacheStatuses = [3]string{"hit", "miss", "coalesced"}

func newPhaseState(buckets []float64) *phaseState {
	reg := telemetry.NewRegistry()
	return &phaseState{
		hist:    reg.Histogram("latency_seconds", "per-request latency", buckets),
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
	st.sumLat.Add(int64(lat))
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

// serve issues request seq and returns its outcome.
func (r *Runner) serve(seq uint64) Result {
	ctx := context.Background()
	if r.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.Timeout)
		defer cancel()
	}
	return r.cfg.Target.Do(ctx, r.cfg.Workload.Need(seq))
}

// doOne serves request seq and records it. In simulation mode the
// latency is the model's and advances the virtual clock; otherwise it
// is measured from the send to completion.
func (r *Runner) doOne(st *phaseState, seq uint64) {
	startAt := r.cfg.Clock.Now()
	res := r.serve(seq)
	var lat time.Duration
	if r.cfg.Model != nil {
		lat = r.cfg.Model(seq, res)
		r.cfg.Clock.Sleep(lat)
	} else {
		lat = r.cfg.Clock.Now().Sub(startAt)
		if lat < 0 {
			lat = 0
		}
	}
	st.record(res, lat)
}

func (r *Runner) runPhase(p Phase) PhaseResult {
	st := newPhaseState(r.cfg.Buckets)
	base := r.nextBase
	start := r.cfg.Clock.Now()

	r.closedLoop(p, st, base)

	executed := st.executed.Load()
	r.nextBase = base + executed

	dur := r.phaseDuration(p, st, start)
	return r.result(p, st, executed, dur)
}

// closedLoop runs Concurrency workers, each issuing its next request
// the moment the previous one completes. Count-bounded phases claim
// slots from a phase-local counter so exactly Requests sequence
// numbers — a deterministic set — are executed.
func (r *Runner) closedLoop(p Phase, st *phaseState, base uint64) {
	var slot atomic.Int64
	deadline := r.cfg.Clock.Now().Add(p.Duration)
	var wg sync.WaitGroup
	for w := 0; w < p.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if p.Requests <= 0 && !r.cfg.Clock.Now().Before(deadline) {
					return
				}
				s := slot.Add(1) - 1
				if p.Requests > 0 && s >= int64(p.Requests) {
					return
				}
				r.doOne(st, base+uint64(s))
			}
		}()
	}
	wg.Wait()
}

// phaseDuration derives the phase's effective wall time. Real-time
// phases report measured elapsed time. Simulated phases divide the
// accumulated virtual time by the worker count (virtual sleeps
// serialize, so raw elapsed overstates duration by exactly that
// factor).
func (r *Runner) phaseDuration(p Phase, st *phaseState, start time.Time) time.Duration {
	if r.cfg.Model == nil {
		return r.cfg.Clock.Now().Sub(start)
	}
	return time.Duration(st.sumLat.Load() / int64(p.workers()))
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
