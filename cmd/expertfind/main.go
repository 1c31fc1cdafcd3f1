// Command expertfind answers expertise needs from the command line:
// it builds the synthetic social corpus, ranks the expert candidates
// for each query given as an argument (or on stdin, one per line) and
// prints the top experts with their scores and the best platform to
// contact them on.
//
// Usage:
//
//	expertfind [flags] "why is copper a good conductor?" ...
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"expertfind"
)

func main() {
	seed := flag.Int64("seed", 1, "corpus seed")
	scale := flag.Float64("scale", 0.5, "corpus volume multiplier")
	corpus := flag.String("corpus", "", "load a saved corpus snapshot instead of generating")
	top := flag.Int("top", 5, "number of experts to print")
	alpha := flag.Float64("alpha", 0.6, "term/entity matching balance in [0,1]")
	distance := flag.Int("distance", 2, "max social-graph distance (0..2)")
	networks := flag.String("networks", "", "comma-separated subset of facebook,twitter,linkedin")
	friends := flag.Bool("friends", false, "include friend users' resources")
	explain := flag.Bool("explain", false, "show the evidence behind the top expert")
	flag.Parse()

	t0 := time.Now()
	sys, err := expertfind.Open(expertfind.Options{
		Config:     expertfind.Config{Seed: *seed, Scale: *scale},
		CorpusPath: *corpus,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "expertfind: %v\n", err)
		os.Exit(1)
	}
	st := sys.Stats()
	fmt.Fprintf(os.Stderr, "corpus ready: %d candidates, %d/%d resources indexed (%v)\n",
		st.Candidates, st.Indexed, st.Resources, time.Since(t0).Round(time.Millisecond))

	opts := []expertfind.FindOption{
		expertfind.WithAlpha(*alpha),
		expertfind.WithMaxDistance(*distance),
	}
	if *friends {
		opts = append(opts, expertfind.WithFriends())
	}
	if *networks != "" {
		var nets []expertfind.Network
		for _, n := range strings.Split(*networks, ",") {
			nets = append(nets, expertfind.Network(strings.TrimSpace(n)))
		}
		opts = append(opts, expertfind.WithNetworks(nets...))
	}

	queries := flag.Args()
	if len(queries) == 0 {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			if q := strings.TrimSpace(sc.Text()); q != "" {
				queries = append(queries, q)
			}
		}
		if err := sc.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "expertfind: reading stdin: %v\n", err)
			os.Exit(1)
		}
	}
	if len(queries) == 0 {
		fmt.Fprintln(os.Stderr, "expertfind: no queries; pass them as arguments or on stdin")
		os.Exit(2)
	}

	for _, q := range queries {
		if err := answer(sys, q, *top, *explain, opts); err != nil {
			fmt.Fprintf(os.Stderr, "expertfind: %v\n", err)
			os.Exit(1)
		}
	}
}

func answer(sys *expertfind.System, q string, top int, explain bool, opts []expertfind.FindOption) error {
	experts, err := sys.Find(q, opts...)
	if err != nil {
		return err
	}
	best, _, err := sys.BestNetwork(q, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("need: %s\n", q)
	if len(experts) == 0 {
		fmt.Println("  no experts found")
		return nil
	}
	fmt.Printf("  best platform to reach them: %s\n", best)
	for i, e := range experts {
		if i >= top {
			break
		}
		fmt.Printf("  %2d. %-16s score %8.2f  (%d supporting resources)\n",
			i+1, e.Name, e.Score, e.SupportingResources)
	}
	if explain {
		expl, err := sys.Explain(q, experts[0].Name, 3, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("  why %s:\n", expl.Expert)
		for _, ev := range expl.Evidence {
			fmt.Printf("    [%s/%s d%d %.1f] %s\n", ev.Network, ev.Kind, ev.Distance, ev.Contribution, ev.Snippet)
		}
	}
	return nil
}
