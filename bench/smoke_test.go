package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny shrinks every dimension to what still exercises every code
// path: two passes, a couple of hundred requests (p95 needs ten samples
// beyond it, so fewer than 200 is refused by the estimator itself), one
// set-up. The stream corpus cannot shrink below its scale-1 base plus
// one scale unit of bulk chunks, which is what makes the cold build
// seal more than one segment; it dominates this test's run time.
var tiny = sizing{
	memScale:    0.1,
	streamScale: 1.01,
	chunkDocs:   4000,

	findN: 240,
	topkN: 240,
	topK:  10,

	httpN:     400,
	httpPool:  60,
	httpCache: 32,
	httpZipf:  1.1,
	httpTail:  0.1,

	churnRounds:  4,
	churnFinds:   60,
	churnAdds:    40,
	churnUpdates: 40,
	churnRemoves: 20,
	churnMaxSegs: 5,

	refSlots:  10,
	minPasses: 2,

	traceN:      40,
	tracePasses: 2,
	docSample:   300,
}

func mustReadSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode holds BENCHMARK.json and the code's metric and
// workload tables to each other, name by name and unit by unit.
func TestSpecMatchesCode(t *testing.T) {
	spec := mustReadSpec(t)
	check := func(kind string, defs []metricDef, named []specMetric, bounded bool) {
		if len(defs) != len(named) {
			t.Errorf("%s: code emits %d metrics, BENCHMARK.json names %d", kind, len(defs), len(named))
		}
		byName := map[string]specMetric{}
		for _, m := range named {
			if _, dup := byName[m.Name]; dup {
				t.Errorf("%s: %s named twice", kind, m.Name)
			}
			byName[m.Name] = m
			if (m.Bound != nil) != bounded {
				t.Errorf("%s: %s: bound present = %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
		}
		for _, d := range defs {
			m, ok := byName[d.name]
			if !ok {
				t.Errorf("%s: code emits %s, BENCHMARK.json does not name it", kind, d.name)
			} else if m.Unit != d.unit {
				t.Errorf("%s: %s has unit %q in code, %q in BENCHMARK.json", kind, d.name, d.unit, m.Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd, true)
	check("per_layer", perLayer, spec.PerLayer, false)
	if len(spec.Workloads) != len(workloadOrder) {
		t.Errorf("BENCHMARK.json names %d workloads, the code has %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadOrder) && w.Name != workloadOrder[i] {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in code", i, w.Name, workloadOrder[i])
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	for name := range pinned {
		if _, ok := workloads[name]; !ok {
			t.Errorf("pins.go pins unknown workload %s", name)
		}
	}
}

// exercised lists, per workload, the layer prefixes its traced run
// must report non-zero; every other layer must report exactly zero.
// That split is the evidence that the workloads separate the layers.
var exercised = map[string][]string{
	"mem_find":    {"analysis.", "socialgraph.", "index.mem.", "core.", "dataset.", "trace."},
	"seg_topk":    {"analysis.", "socialgraph.", "index.store.", "core.", "dataset.", "corpusio.", "trace."},
	"seg_churn":   {"analysis.", "socialgraph.", "index.store.", "core.", "ingest.", "dataset.", "corpusio.", "trace."},
	"http_cached": {"analysis.", "socialgraph.", "index.mem.", "core.", "rescache.", "httpapi.", "dataset.", "trace."},
}

// mayBeZero are metrics of an exercised layer that a given workload
// legitimately leaves at zero: the store serves either the pruned or
// the exhaustive entry point, and only the pruned one skips and prunes.
var mayBeZero = map[string][]string{
	"seg_topk":  {"index.store.score_us"},
	"seg_churn": {"index.store.topk_us", "index.store.blocks_skipped_per_op", "index.store.pruned_docs_per_op"},
}

func hasPrefixIn(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func checkMetrics(t *testing.T, res *result, named []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(named) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(named))
	}
	for _, m := range named {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s not emitted", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s emitted in %q, named in %q", m.Name, got.Unit, m.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0 {
			t.Errorf("%s = %v", m.Name, got.Value)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at the tiny
// sizing and holds the output to the stronger bar the ROADMAP asks of
// the ledger: not that data exists, but its shape.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two stream corpora per segment workload")
	}
	spec := mustReadSpec(t)
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			res, err := run(runConfig{workload: name, seed: 3, seconds: 0, sz: tiny})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct %v, %d failed of %d", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if res.Metrics[m.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is zero", m.Name)
				}
			}

			out := filepath.Join(t.TempDir(), "spans.json")
			res, err = run(runConfig{workload: name, seed: 3, trace: true, out: out, sz: tiny})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("traced: correct %v, %d failed of %d", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, spec.PerLayer)
			for _, m := range spec.PerLayer {
				v := res.Metrics[m.Name].Value
				switch {
				case !hasPrefixIn(m.Name, exercised[name]):
					if v != 0 {
						t.Errorf("%s = %v on a workload that does not exercise its layer", m.Name, v)
					}
				case v == 0 && !hasPrefixIn(m.Name, mayBeZero[name]):
					t.Errorf("%s is zero on a workload that exercises its layer", m.Name)
				}
			}
			if c := res.Metrics["trace.coverage"].Value; c < 0.8 || c > 1.1 {
				t.Errorf("trace.coverage = %v, want within [0.8, 1.1]", c)
			}
			var spans []span
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatalf("span file: %v", err)
			}
			for _, s := range spans {
				if s.End < s.Start || s.Name == "" || s.Parent >= s.ID {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}
