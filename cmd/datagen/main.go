// Command datagen generates the synthetic evaluation corpus and
// prints its statistics (the Fig. 5 dataset characterization), or
// dumps the full corpus as JSON for inspection.
//
// Usage:
//
//	datagen [-seed N] [-scale F] [-json out.json] [-samples K]
//	        [-save corpus.json.gz] [-load corpus.json.gz]
//	        [-stream corpus.stream.json.gz] [-chunk-docs N]
//	        [-segment-dir DIR] [-segment-flush-docs N] [-segment-max N]
//	        [-fault-transient F] [-fault-ratelimit F] [-fault-seed N]
//	        [-fault-outages net,net] [-retries N]
//	        [-log-format text|json] [-log-level L]
//
// There is one corpus file format (internal/corpusio): -save writes
// the corpus in memory as a file with no chunks, and -load reads any
// corpus file. -stream switches to streaming generation: the corpus is
// written straight to disk as chunked records, and bulk texts are
// dropped from memory as each chunk lands, so peak memory is bounded
// by the base corpus plus one chunk at any -scale. With -segment-dir
// the file is then analyzed chunk by chunk into a disk-backed segment
// index that cmd/serve and cmd/loadtest open directly. cmd/serve
// -corpus serves a file of either kind.
//
// When any -fault-* flag is set, the corpus is re-crawled through the
// fault-injecting platform API (internal/faults) and the degraded
// view replaces the pristine graph — so saved corpora and printed
// statistics reflect what a crawler facing flaky APIs would obtain.
// -retries enables the retry/breaker stack during that crawl; the
// crawl emits structured log records (breaker transitions, final
// summary) to stderr, shaped by -log-format and -log-level.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"expertfind/internal/corpusio"
	"expertfind/internal/crawler"
	"expertfind/internal/dataset"
	"expertfind/internal/experiments"
	"expertfind/internal/faults"
	"expertfind/internal/index"
	"expertfind/internal/kb"
	"expertfind/internal/socialgraph"
	"expertfind/internal/telemetry"
)

// jsonResource is the dump format of one resource.
type jsonResource struct {
	ID        int32    `json:"id"`
	Network   string   `json:"network"`
	Kind      string   `json:"kind"`
	Creator   string   `json:"creator"`
	Container int32    `json:"container,omitempty"`
	Text      string   `json:"text"`
	URLs      []string `json:"urls,omitempty"`
}

// jsonCandidate is the dump format of one candidate's ground truth.
type jsonCandidate struct {
	Name           string         `json:"name"`
	Expressiveness float64        `json:"expressiveness"`
	Activity       float64        `json:"activity"`
	Levels         map[string]int `json:"levels"`
	ExpertIn       []string       `json:"expert_in"`
}

type jsonDump struct {
	Seed       int64           `json:"seed"`
	Scale      float64         `json:"scale"`
	Candidates []jsonCandidate `json:"candidates"`
	Queries    []dataset.Query `json:"queries"`
	Resources  []jsonResource  `json:"resources"`
}

func main() {
	seed := flag.Int64("seed", 1, "generation seed")
	scale := flag.Float64("scale", 1.0, "volume multiplier")
	jsonPath := flag.String("json", "", "write the full corpus as JSON to this file")
	savePath := flag.String("save", "", "save the corpus as a reloadable corpus file (.gz to compress)")
	loadPath := flag.String("load", "", "load a corpus file (-save or -stream) instead of generating")
	streamPath := flag.String("stream", "", "generate the corpus into a chunked corpus file (.gz to compress) in bounded memory")
	chunkDocs := flag.Int("chunk-docs", 25000, "bulk resources per stream chunk")
	segmentDir := flag.String("segment-dir", "", "with -stream: build a disk-backed segment index of the corpus in this directory")
	segmentFlush := flag.Int("segment-flush-docs", 0, "segment store memtable flush threshold (0 = default)")
	segmentMax := flag.Int("segment-max", 0, "segment count that triggers compaction (0 = default)")
	samples := flag.Int("samples", 3, "sample resources to print per network")
	faultTransient := flag.Float64("fault-transient", 0, "probability an API call fails transiently")
	faultRateLimit := flag.Float64("fault-ratelimit", 0, "probability an API call is rate-limited (429)")
	faultSeed := flag.Int64("fault-seed", 23, "fault injection seed")
	faultOutages := flag.String("fault-outages", "", "comma-separated networks that are hard down (facebook,twitter,linkedin)")
	retries := flag.Int("retries", 0, "max attempts per API call during the faulted crawl (0 = no retries)")
	logFormat := flag.String("log-format", "text", "crawl log record format: text or json")
	logLevel := flag.String("log-level", "info", "minimum crawl log level: debug, info, warn or error")
	flag.Parse()
	if err := idleFlag(flag.CommandLine); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(2)
	}

	logger, err := telemetry.NewLogger(os.Stderr, telemetry.LogConfig{Format: *logFormat, Level: *logLevel})
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(2)
	}

	if *streamPath != "" {
		if err := runStream(*seed, *scale, *chunkDocs, *streamPath, *segmentDir, *segmentFlush, *segmentMax); err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	t0 := time.Now()
	var ds *dataset.Dataset
	if *loadPath != "" {
		var err error
		ds, err = corpusio.LoadStreamFile(*loadPath, corpusio.StreamLoadOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
	} else {
		ds = dataset.Generate(dataset.Config{Seed: *seed, Scale: *scale})
	}

	if *faultTransient > 0 || *faultRateLimit > 0 || *faultOutages != "" {
		cfg := faults.Config{
			Seed:          *faultSeed,
			TransientRate: *faultTransient,
			RateLimitRate: *faultRateLimit,
		}
		for _, name := range strings.Split(*faultOutages, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			net := socialgraph.Network(name)
			switch net {
			case socialgraph.Facebook, socialgraph.Twitter, socialgraph.LinkedIn:
				cfg.Outages = append(cfg.Outages, net)
			default:
				fmt.Fprintf(os.Stderr, "datagen: unknown network %q\n", name)
				os.Exit(2)
			}
		}
		res := crawler.Resilience{}
		if *retries > 0 {
			res = crawler.DefaultResilience
			res.Retry.MaxAttempts = *retries
		}
		res.Logger = logger
		crawled, st := crawler.CrawlAPI(faults.Wrap(ds.Graph, cfg), crawler.FullAccess, res)
		fmt.Printf("faulted crawl: %d/%d resources recovered (%d calls, %d failed, %d retries, %d gave up, %d breaker trips)\n",
			crawled.NumResources(), ds.Graph.NumResources(),
			st.APICalls, st.FailedCalls, st.Retries, st.GaveUp, st.BreakerTrips)
		ds = ds.WithGraph(crawled)
	}

	fmt.Printf("generated in %v: %d resources, %d users (%d candidates), %d containers, %d web pages\n\n",
		time.Since(t0).Round(time.Millisecond), ds.Graph.NumResources(), ds.Graph.NumUsers(),
		len(ds.Candidates), ds.Graph.NumContainers(), ds.Web.Len())

	sys := &experiments.System{DS: ds}
	fmt.Print(experiments.RunFig5a(sys))
	fmt.Println()
	fmt.Print(experiments.RunFig5b(sys))

	if *samples > 0 {
		fmt.Println("\nsample resources:")
		printSamples(ds, *samples)
	}

	if *jsonPath != "" {
		if err := writeJSON(ds, *jsonPath, *seed, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ncorpus written to %s\n", *jsonPath)
	}
	if *savePath != "" {
		if err := corpusio.SaveFile(ds, *savePath); err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ncorpus file written to %s\n", *savePath)
	}
}

// idleFlag names the first explicitly set flag that the mode the
// command line selects would silently ignore: the stream-only flags
// without -stream, the whole-corpus outputs and -load with it.
func idleFlag(fs *flag.FlagSet) error {
	stream := fs.Lookup("stream").Value.String() != ""
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "chunk-docs", "segment-dir", "segment-flush-docs", "segment-max":
			if !stream && err == nil {
				err = fmt.Errorf("-%s has no effect without -stream", f.Name)
			}
		case "json", "save", "load":
			if stream && err == nil {
				err = fmt.Errorf("-%s has no effect with -stream", f.Name)
			}
		}
	})
	return err
}

// runStream generates a corpus straight to disk in chunked form and,
// when segmentDir is set, builds the segment index from the stream.
func runStream(seed int64, scale float64, chunkDocs int, streamPath, segmentDir string, flushDocs, maxSegments int) error {
	t0 := time.Now()
	cfg := dataset.StreamConfig{Config: dataset.Config{Seed: seed, Scale: scale}, ChunkDocs: chunkDocs}
	total := cfg.BulkChunks()
	ds, err := corpusio.WriteStreamFile(streamPath, cfg, func(d *dataset.Dataset, chunks int) {
		if chunks%25 == 0 || chunks == total {
			fmt.Printf("  chunk %d/%d: %d users, %d resources, %v elapsed\n",
				chunks, total, d.Graph.NumUsers(), d.Graph.NumResources(),
				time.Since(t0).Round(time.Second))
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("corpus file written to %s in %v: %d chunks, %d users, %d resources\n",
		streamPath, time.Since(t0).Round(time.Millisecond), total,
		ds.Graph.NumUsers(), ds.Graph.NumResources())
	if segmentDir == "" {
		return nil
	}

	t1 := time.Now()
	sys, err := experiments.Build(experiments.BuildOptions{
		CorpusPath: streamPath,
		SegmentDir: segmentDir,
		Store:      index.StoreOptions{FlushDocs: flushDocs, MaxSegments: maxSegments},
	})
	if err != nil {
		return err
	}
	store := sys.Finder.Index().(*index.Store)
	defer store.Close()
	if err := store.Compact(); err != nil {
		return err
	}
	st := store.Status()
	fmt.Printf("segment index built in %s in %v: %d docs in %d segments (%.1f MB on disk, %d seals, %d compactions)\n",
		segmentDir, time.Since(t1).Round(time.Millisecond), st.LiveDocs, len(st.Segments),
		float64(st.DiskBytes)/(1<<20), st.Seals, st.Compactions)
	return nil
}

func printSamples(ds *dataset.Dataset, k int) {
	printed := map[socialgraph.Network]int{}
	for i := 0; i < ds.Graph.NumResources(); i++ {
		r := ds.Graph.Resource(socialgraph.ResourceID(i))
		if r.Kind == socialgraph.KindProfile || printed[r.Network] >= k {
			continue
		}
		printed[r.Network]++
		text := r.Text
		if len(text) > 90 {
			text = text[:90] + "..."
		}
		fmt.Printf("  [%s/%s] %s\n", r.Network, r.Kind, text)
	}
}

func writeJSON(ds *dataset.Dataset, path string, seed int64, scale float64) error {
	dump := jsonDump{Seed: seed, Scale: scale, Queries: ds.Queries}
	for _, u := range ds.Candidates {
		c := jsonCandidate{
			Name:           ds.Graph.User(u).Name,
			Expressiveness: ds.Expressiveness(u),
			Activity:       ds.Activity(u),
			Levels:         map[string]int{},
		}
		for _, dom := range kb.Domains {
			c.Levels[string(dom)] = ds.Level(u, dom)
			if ds.IsExpert(u, dom) {
				c.ExpertIn = append(c.ExpertIn, string(dom))
			}
		}
		dump.Candidates = append(dump.Candidates, c)
	}
	for i := 0; i < ds.Graph.NumResources(); i++ {
		r := ds.Graph.Resource(socialgraph.ResourceID(i))
		dump.Resources = append(dump.Resources, jsonResource{
			ID:        int32(r.ID),
			Network:   string(r.Network),
			Kind:      r.Kind.String(),
			Creator:   ds.Graph.User(r.Creator).Name,
			Container: int32(r.Container),
			Text:      r.Text,
			URLs:      r.URLs,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(dump); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
