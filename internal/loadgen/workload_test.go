package loadgen

import (
	"strings"
	"sync"
	"testing"

	"expertfind/internal/kb"
)

func testSource() Source {
	return Source{
		Queries: []string{
			"Who knows about training for a marathon?",
			"Best camera for street photography?",
		},
		DomainWeights: map[kb.Domain]float64{
			kb.Domains[0]: 3,
			kb.Domains[1]: 1,
		},
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	a := NewWorkload(WorkloadConfig{Seed: 42}, testSource())
	b := NewWorkload(WorkloadConfig{Seed: 42}, testSource())
	if len(a.Pool()) != 64 {
		t.Fatalf("pool size = %d, want 64", len(a.Pool()))
	}
	for seq := uint64(0); seq < 500; seq++ {
		if na, nb := a.Need(seq), b.Need(seq); na != nb {
			t.Fatalf("seq %d: %q vs %q across same-seed workloads", seq, na, nb)
		}
	}
	c := NewWorkload(WorkloadConfig{Seed: 43}, testSource())
	diff := 0
	for seq := uint64(0); seq < 500; seq++ {
		if a.Need(seq) != c.Need(seq) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical request streams")
	}
}

// Need must be a pure function: concurrent callers asking about the
// same seq see the same need, and order of calls is irrelevant.
func TestWorkloadNeedConcurrentPure(t *testing.T) {
	w := NewWorkload(WorkloadConfig{Seed: 7}, testSource())
	want := make([]string, 200)
	for seq := range want {
		want[seq] = w.Need(uint64(seq))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := len(want) - 1; seq >= 0; seq-- {
				if got := w.Need(uint64(seq)); got != want[seq] {
					t.Errorf("seq %d: %q != %q", seq, got, want[seq])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestWorkloadZipfSkewAndColdTail(t *testing.T) {
	w := NewWorkload(WorkloadConfig{Seed: 1, ColdFraction: 0.05}, testSource())
	pool := w.Pool()
	counts := make(map[string]int)
	const n = 20000
	cold := 0
	for seq := uint64(0); seq < n; seq++ {
		need := w.Need(seq)
		counts[need]++
		if !contains(pool, need) {
			cold++
		}
	}
	// Hot skew: rank 0 must dominate the pool tail.
	if head := counts[pool[0]]; head < 10*counts[pool[len(pool)-1]] || head < n/10 {
		t.Errorf("hot head count %d not Zipf-dominant (tail %d)", head, counts[pool[len(pool)-1]])
	}
	// Cold tail: about 5% unseen needs, each unique.
	if frac := float64(cold) / n; frac < 0.03 || frac > 0.08 {
		t.Errorf("cold fraction = %.3f, want ~0.05", frac)
	}
	// Cold needs never collide with the pool's vocabulary phrasing.
	for need := range counts {
		if !contains(pool, need) && !strings.HasPrefix(need, "Does anyone know about ") {
			t.Fatalf("unexpected non-pool need %q", need)
		}
	}
}

func TestWorkloadPoolSeededFromQueries(t *testing.T) {
	src := testSource()
	w := NewWorkload(WorkloadConfig{Seed: 5, HotNeeds: 16}, src)
	pool := w.Pool()
	for i, q := range src.Queries {
		if pool[i] != q {
			t.Fatalf("pool[%d] = %q, want corpus query %q", i, pool[i], q)
		}
	}
	// Synthetic needs draw on real KB vocabulary/entities.
	if len(pool) != 16 {
		t.Fatalf("pool size = %d, want 16", len(pool))
	}
	for _, need := range pool[len(src.Queries):] {
		if len(need) < 20 {
			t.Errorf("suspiciously short synthetic need %q", need)
		}
	}
}

func TestWorkloadUniformWhenNoWeights(t *testing.T) {
	w := NewWorkload(WorkloadConfig{Seed: 9, HotNeeds: 40}, Source{})
	if len(w.Pool()) != 40 {
		t.Fatalf("pool = %d, want 40 synthetic needs", len(w.Pool()))
	}
}

func TestWorkloadDefaults(t *testing.T) {
	cfg := WorkloadConfig{}.withDefaults()
	if cfg.Seed != 1 || cfg.HotNeeds != 64 || cfg.ColdFraction != 0.05 {
		t.Fatalf("defaults = %+v", cfg)
	}
	neg := WorkloadConfig{ColdFraction: -1}.withDefaults()
	if neg.ColdFraction != 0 {
		t.Fatalf("negative ColdFraction should clamp to 0, got %v", neg.ColdFraction)
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
