package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// specMetric is one metric as BENCHMARK.json names it; per-layer
// metrics carry no bound.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the A/A check and the tests
// read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// runOnce runs one workload in a fresh process of this same binary and
// decodes the last line it prints.
func runOnce(workload string, seed int64, seconds float64) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return &res, nil
}

// runAA runs each workload twice with identical code and inputs and
// holds the pair to the benchmark's own bounds: the second run may not
// be worse than the first, nor the first than the second, by more than
// the metric's bound. A metric that cannot hold its bound here has no
// place in the end-to-end table. It returns the process exit code.
func runAA(names []string, seed int64, seconds float64, specPath string) int {
	spec, err := readSpec(specPath)
	if err != nil {
		logf("bench -aa: %v", err)
		return 2
	}
	code := 0
	for _, name := range names {
		a, err := runOnce(name, seed, seconds)
		if err == nil && !a.Correct {
			err = fmt.Errorf("%s: first run failed %d of %d operations", name, a.Failed, a.Attempted)
		}
		var b *result
		if err == nil {
			b, err = runOnce(name, seed, seconds)
		}
		if err == nil && !b.Correct {
			err = fmt.Errorf("%s: second run failed %d of %d operations", name, b.Failed, b.Attempted)
		}
		if err != nil {
			logf("bench -aa: %v", err)
			return 1
		}
		fmt.Printf("%s\n  %-22s %14s %14s %8s %7s\n", name, "metric", "run A", "run B", "diff", "bound")
		for _, m := range spec.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			diff := 0.0
			if lo := min(va, vb); lo > 0 {
				diff = max(va, vb)/lo - 1
			}
			verdict := ""
			if m.Bound == nil {
				logf("bench -aa: %s has no bound in %s", m.Name, specPath)
				return 2
			}
			if diff > *m.Bound {
				verdict = "  EXCEEDED"
				code = 1
			}
			fmt.Printf("  %-22s %14.4f %14.4f %7.2f%% %6.0f%%%s\n", m.Name, va, vb, 100*diff, 100*(*m.Bound), verdict)
		}
	}
	return code
}
