// Command experiments reproduces the tables and figures of the
// paper's evaluation section over the synthetic corpus and prints
// them as text.
//
// Usage:
//
//	experiments [-seed N] [-scale F] [-run id,id,...]
//	            [-fault-rates F,F,...] [-fault-seed N] [-retries N]
//
// Experiment ids: fig5a fig5b fig6 fig7 table2 fig8 table3 fig9
// table4 fig10 fig11 (default: all, in paper order). The -fault-*
// and -retries flags parameterize the "faults" sweep (ranking
// quality vs injected API failure rate).
//
// Standard output carries only the results, so a run with default
// flags is byte-reproducible (`make figures-check` compares it with
// the committed experiments_output.txt); timings go to standard error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"expertfind/internal/dataset"
	"expertfind/internal/experiments"
	"expertfind/internal/resilience"
)

func main() {
	seed := flag.Int64("seed", 1, "dataset generation seed")
	scale := flag.Float64("scale", 1.0, "corpus volume multiplier")
	run := flag.String("run", "", "comma-separated experiment ids; empty runs all")
	faultRates := flag.String("fault-rates", "", "comma-separated API failure rates for the faults sweep; empty sweeps 0,0.05,0.1,0.25,0.5")
	faultSeed := flag.Int64("fault-seed", 0, "fault injection seed for the faults sweep (0 = 23)")
	retries := flag.Int("retries", 0, "max attempts per API call in the faults sweep (default: the standard stack's 4)")
	flag.Parse()

	sweep := experiments.DefaultFaultSweep()
	if *faultRates != "" {
		sweep.Rates = nil
		for _, f := range strings.Split(*faultRates, ",") {
			rate, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || rate < 0 || rate > 1 {
				fmt.Fprintf(os.Stderr, "experiments: invalid failure rate %q\n", f)
				os.Exit(2)
			}
			sweep.Rates = append(sweep.Rates, rate)
		}
	}
	if *faultSeed != 0 {
		sweep.Seed = *faultSeed
	}
	if *retries > 0 {
		sweep.Res.Retry.MaxAttempts = *retries
		if *retries == 1 {
			sweep.Res.Retry = resilience.RetryPolicy{MaxAttempts: 1}
		}
	}

	sections := experiments.Sections(sweep)

	want := map[string]bool{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			want[strings.TrimSpace(id)] = true
		}
		for id := range want {
			known := false
			for _, sec := range sections {
				if sec.ID == id {
					known = true
				}
			}
			if !known {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", id)
				os.Exit(2)
			}
		}
	}

	t0 := time.Now()
	sys := experiments.BuildSystem(dataset.Config{Seed: *seed, Scale: *scale})
	fmt.Printf("system: %d resources generated, %d indexed, %d candidates\n\n",
		sys.DS.Graph.NumResources(), sys.Kept, len(sys.DS.Candidates))
	fmt.Fprintf(os.Stderr, "system built in %v\n", time.Since(t0).Round(time.Millisecond))

	for _, sec := range sections {
		if len(want) > 0 && !want[sec.ID] {
			continue
		}
		t := time.Now()
		result := sec.Run(sys)
		fmt.Printf("== %s ==\n%s\n", sec.ID, result)
		fmt.Fprintf(os.Stderr, "%s took %v\n", sec.ID, time.Since(t).Round(time.Millisecond))
	}
}
