package loadgen

import (
	"context"
	"sync"
	"testing"
	"time"
)

// simTarget is a simulated service: a fixed cost per response byte,
// slept on the wall clock, with the response size a pure function of
// the need.
func simTarget() Target {
	return TargetFunc(func(ctx context.Context, need string) Result {
		time.Sleep(200*time.Microsecond + time.Duration(len(need))*time.Microsecond)
		return Result{Class: ClassOK, Bytes: len(need)}
	})
}

func TestSimPhaseResults(t *testing.T) {
	r := NewRunner(Config{Workload: NewWorkload(WorkloadConfig{Seed: 3}, testSource()), Target: simTarget()})
	results := r.Run(
		Phase{Name: "warmup", Requests: 40, Concurrency: 4},
		Phase{Name: "ramp", Requests: 40, Concurrency: 8},
		Phase{Name: "steady", Requests: 200, Concurrency: 8},
	)
	if len(results) != 3 {
		t.Fatalf("phases = %d", len(results))
	}
	for i, want := range []uint64{40, 40, 200} {
		pr := results[i]
		if pr.Requests != want || pr.QPS <= 0 || pr.DurationSeconds <= 0 {
			t.Errorf("phase %s: %d requests (want %d), %+v", pr.Name, pr.Requests, want, pr)
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
		return NewRunner(Config{Workload: w, Target: collect})
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
