// Command serve runs the expert finding system as an HTTP JSON
// service (see internal/httpapi for the endpoints).
//
// Usage:
//
//	serve [-addr :8080] [flags]
//
// The corpus is generated from -seed/-scale or loaded from a -corpus
// file, and indexed in memory or, with -segment-dir, in a segment store
// on disk; -shard-id/-shard-count restrict it to one slice of a
// scatter-gather topology, and -ingest-interval keeps the generated
// in-memory corpus ingesting live. With -shards URL,URL,... the process
// loads no corpus and coordinates such shard processes instead. The
// listener comes up at once: /healthz answers from the start, /readyz
// and /v1 answer 503 until the build finishes or a shard is reachable.
// OPERATIONS.md ("serve") has the flag table and the runbooks; a usage
// error exits 2 with one line on stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"expertfind"
	"expertfind/internal/dataset"
	"expertfind/internal/faults"
	"expertfind/internal/httpapi"
	"expertfind/internal/ingest"
	"expertfind/internal/rescache"
	"expertfind/internal/scatter"
	"expertfind/internal/slo"
	"expertfind/internal/telemetry"
)

// options holds the flags where their consumers read them.
type options struct {
	addr string
	// open is the argument of the one expertfind.Open call: source,
	// slice and container.
	open            expertfind.Options
	segmentMaintain time.Duration
	// coord is the other source: with Shards set the process
	// coordinates those serve processes and open goes unused.
	coord scatter.Options

	api   httpapi.Options
	cache rescache.Options
	log   telemetry.LogConfig
	slo   slo.Config

	ingestInterval time.Duration
}

// needs maps a flag to the one without which it silently does nothing.
var needs = map[string]string{
	"segment-flush-docs": "segment-dir",
	"segment-max":        "segment-dir",
	"shard-id":           "shard-count",
	"shard-timeout":      "shards",
	"hedge-disable":      "shards",
	"health-interval":    "shards",
}

// corpusOnly lists the flags that configure a local corpus, its index,
// its result cache or its ingest: -shards refuses each, because a
// coordinator holds none of them.
var corpusOnly = []string{
	"seed", "scale", "corpus",
	"segment-dir", "segment-flush-docs", "segment-max", "segment-maintain",
	"index-shards", "cache-size", "shard-id", "shard-count",
	"ingest-interval",
}

// parseFlags parses args into the run's options. A flag error, an
// explicitly set flag that would have no effect or a combination no
// build path serves is reported on stderr and returned, not fatal.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	var (
		o        options
		logStamp bool
		shards   string
	)
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.Int64Var(&o.open.Config.Seed, "seed", 1, "corpus seed (ignored with -corpus); with -ingest-interval it also seeds the twin's churn")
	fs.Float64Var(&o.open.Config.Scale, "scale", 0.5, "corpus volume multiplier (ignored with -corpus)")
	fs.StringVar(&o.open.CorpusPath, "corpus", "", "load a corpus file (datagen -save or -stream, System.SaveCorpus) instead of generating")
	fs.StringVar(&o.open.SegmentDir, "segment-dir", "", "serve from a disk-backed segment index in this directory instead of memory, one directory per shard: cold-built when empty (chunk by chunk from a corpus file with chunks), reopened without analysis once populated. A reopen refuses a store whose build did not finish or indexed another corpus or slice, and a document id outside the corpus, deleted in it or outside this slice")
	fs.IntVar(&o.open.Stream.FlushDocs, "segment-flush-docs", 0, "memtable documents that trigger a segment seal (0 = 50000); needs -segment-dir")
	fs.IntVar(&o.open.Stream.MaxSegments, "segment-max", 0, "sealed-segment count that triggers background compaction (0 = 8); needs -segment-dir")
	fs.DurationVar(&o.segmentMaintain, "segment-maintain", 30*time.Second, "background seal and compaction interval (0 disables maintenance)")
	fs.IntVar(&o.open.Config.IndexShards, "index-shards", 0, "most parts one find is scored on in parallel (0 = GOMAXPROCS, 1 = serial); rankings are identical for every value")
	fs.StringVar(&shards, "shards", "", "coordinator mode: comma-separated http(s) base URLs of the shard processes, position = shard id; refuses every flag that configures a local corpus, index, cache or ingest")
	fs.DurationVar(&o.coord.ShardTimeout, "shard-timeout", 2*time.Second, "per-call deadline budget for one shard request; needs -shards")
	fs.BoolVar(&o.coord.NoHedge, "hedge-disable", false, "disable hedged second requests to straggling shards; needs -shards")
	fs.DurationVar(&o.coord.HealthInterval, "health-interval", time.Second, "shard readiness probe interval; needs -shards")
	fs.DurationVar(&o.api.RequestTimeout, "request-timeout", 10*time.Second, "deadline for each /v1 request (0 disables)")
	fs.IntVar(&o.api.MaxConcurrent, "max-concurrent", 64, "max in-flight /v1 requests before shedding load with a 503 (0 = unlimited)")
	fs.IntVar(&o.cache.Capacity, "cache-size", 4096, "ranked-result cache capacity in entries (0 disables caching)")
	fs.BoolVar(&o.api.Debug, "debug", false, "mount pprof and expvar under /debug/")
	fs.IntVar(&o.open.ShardID, "shard-id", 0, "this process's shard number in a scatter-gather topology; needs -shard-count")
	fs.IntVar(&o.open.ShardCount, "shard-count", 0, "scatter-gather topology size: >= 1 builds only shard -shard-id's document slice and mounts /v1/shard/* for a coordinator")
	fs.StringVar(&o.log.Format, "log-format", "text", "log record format: text or json (an access record carries method, path, route, status, bytes, duration, rid, shard and degraded)")
	fs.StringVar(&o.log.Level, "log-level", "info", "minimum log level: debug, info, warn or error")
	fs.BoolVar(&logStamp, "log-stamp", true, "timestamp log records (false for byte-deterministic output)")
	fs.DurationVar(&o.slo.Latency, "slo-latency", 500*time.Millisecond, "latency objective for /v1 requests; also the slow-trace keep threshold")
	fs.Float64Var(&o.slo.Availability, "slo-availability", 0.999, "availability objective (target non-5xx ratio)")
	fs.DurationVar(&o.slo.Window, "slo-window", 5*time.Minute, "sliding window for the SLO burn rates")
	fs.Float64Var(&o.slo.BurnAlert, "slo-burn-alert", 4, "burn rate that triggers an on-breach profile capture")
	fs.StringVar(&o.slo.ProfileDir, "pprof-dir", "", "directory for on-breach pprof captures (empty disables capturing)")
	fs.DurationVar(&o.ingestInterval, "ingest-interval", 0, "continuous-ingest tick: > 0 edits 8 resources of a regenerated remote twin and ingests the change on this interval (0 disables); needs the generated corpus in memory, so -corpus, -segment-dir and -shard-count refuse it")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.log.NoStamp = !logStamp

	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var err error
	if set["shards"] {
		for _, name := range corpusOnly {
			if set[name] && err == nil {
				err = fmt.Errorf("-%s configures a local corpus, and -shards serves none", name)
			}
		}
		if err == nil {
			o.coord.Shards, err = shardBases(shards)
		}
	}
	fs.Visit(func(f *flag.Flag) {
		if need := needs[f.Name]; err == nil && need != "" && !set[need] {
			err = fmt.Errorf("-%s has no effect without -%s", f.Name, need)
		}
	})
	if err == nil {
		err = o.refused()
	}
	if err != nil {
		fmt.Fprintf(stderr, "serve: %v\n", err)
		return nil, err
	}
	return &o, nil
}

// shardBases splits -shards into base URLs. Position is the shard id, so
// a blank element is refused rather than skipped; a trailing slash is
// dropped, as paths are appended to the base.
func shardBases(list string) ([]string, error) {
	bases := strings.Split(list, ",")
	for i, s := range bases {
		s = strings.TrimRight(strings.TrimSpace(s), "/")
		if u, err := url.Parse(s); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("-shards element %d (%q) is not an http(s)://host base URL", i, bases[i])
		}
		bases[i] = s
	}
	return bases, nil
}

// refused names the flag combination no build path serves, if any.
func (o *options) refused() error {
	b := o.open
	switch {
	case o.ingestInterval > 0 && (b.CorpusPath != "" || b.SegmentDir != "" || b.ShardCount > 0):
		// A round diffs against a regenerated twin of the served corpus:
		// a corpus file has none, a shard serves a slice while a delta
		// carries the whole corpus, and the segment store's writes are
		// not durable across a restart yet.
		return errors.New("-ingest-interval requires the generated corpus in memory: it excludes -corpus, -segment-dir and -shard-count")
	case b.ShardCount < 0 || b.ShardID < 0 || b.ShardID >= max(b.ShardCount, 1):
		return fmt.Errorf("-shard-id %d outside a topology of -shard-count %d", b.ShardID, b.ShardCount)
	}
	return nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}

	logger, err := telemetry.NewLogger(os.Stderr, o.log)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	fatalf := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if o.open.ShardCount > 0 {
		o.api.Shard = &httpapi.ShardOptions{ID: o.open.ShardID, Count: o.open.ShardCount}
		// Every record from a shard process carries its topology
		// position, so interleaved multi-process logs stay attributable.
		logger = logger.With("shard", o.open.ShardID)
	}
	o.slo.Logger = logger
	tracker := slo.New(o.slo)
	// Slow traces are defined by the latency objective: anything that
	// breaches it is retained in the tracer's keep ring.
	tracer := telemetry.DefaultTracer()
	policy := tracer.KeepPolicy()
	policy.SlowThreshold = tracker.Latency()
	tracer.SetKeepPolicy(policy)
	o.api.Logger, o.api.Tracer, o.api.SLO = logger, tracer, tracker

	// SIGINT/SIGTERM end the background loops and drain the listener.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var handler http.Handler
	if len(o.coord.Shards) > 0 {
		o.coord.Logger = logger
		co, err := scatter.New(o.coord)
		if err != nil {
			fatalf("bad topology", "err", err.Error())
		}
		handler = httpapi.NewCoordinator(co, o.api)
		// Bootstrap retries until the topology is known, then periodic
		// readiness probes keep /readyz and the shards-down gauge fresh.
		go co.Run(ctx)
		logger.Info("coordinating", "shards", len(o.coord.Shards))
	} else {
		handler = serveCorpus(o, logger, fatalf)
	}

	// WriteTimeout must outlast the request deadline so the 503 the
	// timeout middleware writes still reaches the client.
	writeTimeout := 30 * time.Second
	if o.api.RequestTimeout > 0 && o.api.RequestTimeout+5*time.Second > writeTimeout {
		writeTimeout = o.api.RequestTimeout + 5*time.Second
	}
	srv := &http.Server{
		Addr:              o.addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelWarn),
	}

	idle := make(chan struct{})
	go func() {
		<-ctx.Done()
		logger.Info("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("shutdown", "err", err.Error())
		}
		close(idle)
	}()

	logger.Info("listening", "addr", o.addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatalf("listen failed", "err", err.Error())
	}
	<-idle
}

// serveCorpus returns the handler of a process that serves a corpus of
// its own and starts building it in the background, so the listener
// (and its liveness probe) is up immediately; /readyz gates traffic
// until SetSystem flips the handler ready.
func serveCorpus(o *options, logger *slog.Logger, fatalf func(string, ...any)) *httpapi.Handler {
	var cache *rescache.Cache
	if o.cache.Capacity > 0 {
		cache = rescache.New(o.cache)
		o.api.Cache = cache
	}
	handler := httpapi.NewWithOptions(nil, o.api)
	go func() {
		t0 := time.Now()
		sys, err := expertfind.Open(o.open)
		if err != nil {
			fatalf("corpus build failed", "err", err.Error())
		}
		st := sys.Stats()
		if o.api.Shard != nil {
			logger.Info("shard ready",
				"shard_count", o.open.ShardCount,
				"build_time", time.Since(t0).Round(time.Millisecond).String(),
				"candidates", st.Candidates, "resources", st.Indexed)
		} else {
			logger.Info("corpus ready",
				"build_time", time.Since(t0).Round(time.Millisecond).String(),
				"candidates", st.Candidates, "indexed", st.Indexed,
				"resources", st.Resources, "index_shards", st.IndexShards)
		}
		handler.SetSystem(sys)

		if store := sys.SegmentStore(); store != nil {
			st := store.Status()
			logger.Info("segment store serving",
				"dir", o.open.SegmentDir, "segments", len(st.Segments),
				"live_docs", st.LiveDocs, "tombstones", st.Tombstones,
				"disk_bytes", st.DiskBytes)
			if o.segmentMaintain > 0 {
				store.StartBackground(o.segmentMaintain)
			}
		}

		if o.ingestInterval > 0 {
			// The remote twin: the same generator configuration yields a
			// same-ID replica of the corpus just installed, which the
			// churn driver then evolves like a live platform, editing a
			// few resources a round with the corpus's seed.
			remote := dataset.Generate(dataset.Config{Seed: o.open.Config.Seed, Scale: o.open.Config.Scale})
			icfg := ingest.Config{
				API:    faults.Wrap(remote.Graph, faults.Config{}),
				Logger: logger,
				Tracer: o.api.Tracer,
			}
			if cache != nil {
				icfg.Cache = cache
			}
			ing, err := sys.NewIngester(icfg)
			if err != nil {
				fatalf("ingest setup failed", "err", err.Error())
			}
			handler.SetIngester(ing)
			churnCfg := ingest.ChurnConfig{Seed: o.open.Config.Seed, Updates: 8}
			churn := ingest.NewChurn(remote.Graph, churnCfg)
			logger.Info("continuous ingest enabled",
				"interval", o.ingestInterval.String(), "updates", churnCfg.Updates)
			go func() {
				for range time.Tick(o.ingestInterval) {
					churn.Round()
					// An aborted round (injected fetch failure) changes
					// nothing and keeps its change-feed cursors, so the
					// churn already applied is fetched again next tick.
					_, _ = ing.RunOnce(context.Background())
				}
			}()
		}
	}()
	return handler
}
