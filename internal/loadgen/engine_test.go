package loadgen

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"expertfind/internal/resilience"
)

// echoTarget is a deterministic in-memory target whose response size
// depends only on the need, with scripted failure needs.
func echoTarget() Target {
	return TargetFunc(func(ctx context.Context, need string) Result {
		return Result{Class: ClassOK, Bytes: len(need)}
	})
}

// simRunner is a virtual-clock runner whose service time is a fixed
// cost per response byte: a pure function of the request, so the whole
// report is too.
func simRunner(seed int64) *Runner {
	return NewRunner(Config{
		Clock:    resilience.NewClock(),
		Workload: NewWorkload(WorkloadConfig{Seed: seed}, testSource()),
		Target:   echoTarget(),
		Model: func(_ uint64, res Result) time.Duration {
			return 500*time.Microsecond + time.Duration(res.Bytes)*2*time.Microsecond
		},
	})
}

func simPhases() []Phase {
	return []Phase{
		{Name: "warmup", Requests: 40, Concurrency: 4},
		{Name: "ramp", Requests: 40, Concurrency: 8},
		{Name: "steady", Requests: 200, Concurrency: 8},
	}
}

func runSim(seed int64) []byte {
	r := simRunner(seed)
	rep := &Report{
		Schema: Schema, Bench: 4, Mode: "sim", Seed: seed,
		Corpus:  CorpusInfo{Seed: 7, Scale: 0.1},
		Drivers: []DriverReport{{Driver: "inprocess", Phases: r.Run(simPhases()...)}},
	}
	b, err := rep.Marshal()
	if err != nil {
		panic(err)
	}
	return b
}

// The acceptance criterion: same seed, same report bytes — despite 8
// racing workers per closed-loop phase.
func TestSimDeterministicAcrossRuns(t *testing.T) {
	a, b := runSim(11), runSim(11)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed sim reports differ:\n%s\n----\n%s", a, b)
	}
	if c := runSim(12); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestSimPhaseResults(t *testing.T) {
	r := simRunner(3)
	results := r.Run(simPhases()...)
	if len(results) != 3 {
		t.Fatalf("phases = %d", len(results))
	}
	for _, pr := range results {
		if pr.Requests == 0 || pr.QPS <= 0 || pr.DurationSeconds <= 0 {
			t.Errorf("phase %s: empty result %+v", pr.Name, pr)
		}
		if pr.Latency.P50 <= 0 || pr.Latency.P95 < pr.Latency.P50 || pr.Latency.P999 < pr.Latency.P99 {
			t.Errorf("phase %s: non-monotone percentiles %+v", pr.Name, pr.Latency)
		}
		if n := pr.ErrorCount(); n != 0 {
			t.Errorf("phase %s: unexpected errors %v", pr.Name, pr.Errors)
		}
	}
	if results[2].Name != "steady" || results[2].Mode != "closed" || results[2].Concurrency != 8 {
		t.Errorf("steady phase metadata: %+v", results[2])
	}
}

// Phases share one sequence space: a run split 40+60 issues the same
// needs as a run of one 100-request phase.
func TestPhasesShareSequenceSpace(t *testing.T) {
	w := NewWorkload(WorkloadConfig{Seed: 5}, testSource())
	var mu sync.Mutex
	seen := []string{}
	collect := TargetFunc(func(ctx context.Context, need string) Result {
		mu.Lock()
		seen = append(seen, need)
		mu.Unlock()
		return Result{Class: ClassOK, Bytes: 1}
	})
	mk := func() *Runner {
		return NewRunner(Config{Clock: resilience.NewClock(), Workload: w, Target: collect, Model: func(uint64, Result) time.Duration { return time.Millisecond }})
	}
	mk().Run(Phase{Name: "a", Requests: 40}, Phase{Name: "b", Requests: 60})
	split := append([]string(nil), seen...)
	seen = seen[:0]
	mk().Run(Phase{Name: "all", Requests: 100})
	if len(split) != 100 || len(seen) != 100 {
		t.Fatalf("request counts: split %d, whole %d", len(split), len(seen))
	}
	for i := range seen {
		if split[i] != seen[i] {
			t.Fatalf("seq %d: %q vs %q", i, split[i], seen[i])
		}
	}
}

func TestClosedLoopTimeBoundVirtual(t *testing.T) {
	clock := resilience.NewClock()
	w := NewWorkload(WorkloadConfig{Seed: 2}, testSource())
	r := NewRunner(Config{
		Clock: clock, Workload: w, Target: echoTarget(),
		Model: func(uint64, Result) time.Duration { return 10 * time.Millisecond },
	})
	res := r.Run(Phase{Name: "soak", Duration: time.Second, Concurrency: 2})[0]
	// 1 virtual second of 10ms requests across 2 workers: the clock
	// accumulates every sleep, so ~100 requests total fit the budget.
	if res.Requests < 90 || res.Requests > 110 {
		t.Errorf("time-bound virtual phase ran %d requests, want ~100", res.Requests)
	}
	if res.QPS <= 0 {
		t.Errorf("qps = %v", res.QPS)
	}
}

func TestRunnerTimeoutApplied(t *testing.T) {
	blocker := TargetFunc(func(ctx context.Context, need string) Result {
		<-ctx.Done()
		return Result{Class: ClassTimeout, Err: ctx.Err()}
	})
	w := NewWorkload(WorkloadConfig{Seed: 6}, testSource())
	r := NewRunner(Config{Workload: w, Target: blocker, Timeout: 10 * time.Millisecond})
	res := r.Run(Phase{Name: "t", Requests: 3})[0]
	if got := res.Errors[string(ClassTimeout)]; got != 3 {
		t.Errorf("timeouts = %d, want 3 (errors %v)", got, res.Errors)
	}
}
