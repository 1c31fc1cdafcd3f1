// Package slo measures the serving layer against explicit service
// level objectives and turns violations into evidence.
//
// Two SLOs are tracked over a sliding window of per-second buckets:
//
//   - availability: the fraction of requests answered without a 5xx
//     (load shed and timeouts count against the budget — to a caller
//     they are outages, whatever the server's reason);
//   - latency: the fraction of successful requests answered under the
//     latency objective.
//
// For each, the tracker publishes a burn rate — how fast the error
// budget is being consumed relative to its sustainable pace, the
// multi-window alerting currency of SRE practice: 1.0 means exactly
// on budget, N means the budget burns N× too fast. When a burn rate
// crosses the alert threshold with enough samples in the window, the
// tracker captures pprof heap and CPU snapshots to disk (rate-limited
// to one capture per interval) so an SLO page arrives with the
// profile of the process that violated it, not just a graph.
//
// Metrics (see OPERATIONS.md): expertfind_slo_requests_total,
// expertfind_slo_availability_errors_total,
// expertfind_slo_latency_breaches_total,
// expertfind_slo_burn_rate{slo}, expertfind_slo_objective{slo},
// expertfind_slo_pprof_captures_total.
package slo

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"expertfind/internal/telemetry"
)

var (
	mRequests = telemetry.Default().Counter(
		"expertfind_slo_requests_total",
		"Requests observed by the SLO tracker (/v1 routes).")
	mErrors = telemetry.Default().Counter(
		"expertfind_slo_availability_errors_total",
		"Requests that burned availability budget (5xx, shed, timeout).")
	mSlow = telemetry.Default().Counter(
		"expertfind_slo_latency_breaches_total",
		"Successful requests slower than the latency objective.")
	mBurn = telemetry.Default().GaugeVec(
		"expertfind_slo_burn_rate",
		"Error-budget burn rate over the sliding window (1 = exactly on budget, N = burning N× too fast).",
		"slo")
	mObjective = telemetry.Default().GaugeVec(
		"expertfind_slo_objective",
		"Configured objective, as a target success ratio per SLO.",
		"slo")
	mCaptures = telemetry.Default().Counter(
		"expertfind_slo_pprof_captures_total",
		"pprof heap+CPU snapshots captured on SLO burn-rate breaches (rate-limited).")
)

// Config parameterizes a Tracker. Zero values select the documented
// defaults.
type Config struct {
	// Availability is the target non-5xx ratio. 0 selects 0.999.
	Availability float64
	// Latency is the latency objective: successful requests slower
	// than this burn latency budget. 0 selects 500ms.
	Latency time.Duration
	// Window is the sliding burn-rate window. 0 selects 5m; capped to
	// [1s, 1h].
	Window time.Duration
	// BurnAlert is the burn rate that triggers the on-breach capture.
	// 0 selects 4 (a fast burn: the whole window's budget spent 4×
	// too fast).
	BurnAlert float64
	// ProfileDir is where breach captures are written; "" disables
	// capturing (burn rates are still tracked and exported).
	ProfileDir string
	// Logger records breaches and capture outcomes; nil silences them.
	Logger *slog.Logger

	// Now overrides the clock (tests). Nil selects time.Now.
	Now func() time.Time
	// Capture overrides the profile writer (tests). Nil selects the
	// pprof heap+CPU capture into ProfileDir.
	Capture func(kind string, burn float64) error
}

const (
	// latencyTarget is the target under-objective ratio among
	// successful requests.
	latencyTarget = 0.99
	// minSamples is how many requests the window needs before a burn
	// rate is trusted enough to alert.
	minSamples = 20
	// captureInterval rate-limits captures: at most one per interval,
	// however long the breach lasts.
	captureInterval = 10 * time.Minute
	// cpuProfileDuration is how long the breach CPU profile runs.
	cpuProfileDuration = 250 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.Availability <= 0 || c.Availability >= 1 {
		c.Availability = 0.999
	}
	if c.Latency <= 0 {
		c.Latency = 500 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 5 * time.Minute
	}
	if c.Window < time.Second {
		c.Window = time.Second
	}
	if c.Window > time.Hour {
		c.Window = time.Hour
	}
	if c.BurnAlert <= 0 {
		c.BurnAlert = 4
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// bucket accumulates one second of observations.
type bucket struct {
	sec    int64
	total  int64
	errors int64
	ok     int64
	slow   int64
}

// Tracker tracks the SLOs of one process. Safe for concurrent use.
type Tracker struct {
	cfg       Config
	captureOn bool

	mu      sync.Mutex
	buckets []bucket
	lastSec int64
	// running window sums, maintained as buckets expire
	total, errors, ok, slow int64
	lastCapture             time.Time
	captured                bool
}

// New builds a tracker and publishes the configured objectives.
func New(cfg Config) *Tracker {
	captureOn := cfg.ProfileDir != "" || cfg.Capture != nil
	cfg = cfg.withDefaults()
	t := &Tracker{
		cfg:       cfg,
		captureOn: captureOn,
		buckets:   make([]bucket, int(cfg.Window/time.Second)),
	}
	if cfg.Capture == nil {
		cfg := cfg // capture the defaulted copy
		t.cfg.Capture = func(kind string, burn float64) error {
			return captureProfiles(cfg, kind)
		}
	}
	mObjective.With("availability").Set(cfg.Availability)
	mObjective.With("latency").Set(latencyTarget)
	return t
}

// Latency returns the configured latency objective (the serving layer
// reuses it as the tracer's slow-trace keep threshold).
func (t *Tracker) Latency() time.Duration { return t.cfg.Latency }

// Observe records one served request: its status code and wall time.
// The serving layer calls it for every /v1 request.
func (t *Tracker) Observe(status int, dur time.Duration) {
	if t == nil {
		return
	}
	now := t.cfg.Now()
	bad := status >= 500
	slow := !bad && dur > t.cfg.Latency

	mRequests.Inc()
	if bad {
		mErrors.Inc()
	}
	if slow {
		mSlow.Inc()
	}

	t.mu.Lock()
	t.advance(now.Unix())
	b := &t.buckets[int(now.Unix())%len(t.buckets)]
	b.total++
	t.total++
	if bad {
		b.errors++
		t.errors++
	} else {
		b.ok++
		t.ok++
		if slow {
			b.slow++
			t.slow++
		}
	}
	availBurn, latBurn := t.burnLocked()
	breach := ""
	worst := 0.0
	if t.total >= minSamples {
		if availBurn >= t.cfg.BurnAlert {
			breach, worst = "availability", availBurn
		} else if latBurn >= t.cfg.BurnAlert {
			breach, worst = "latency", latBurn
		}
	}
	capture := false
	if breach != "" && t.captureOn {
		if !t.captured || now.Sub(t.lastCapture) >= captureInterval {
			t.captured = true
			t.lastCapture = now
			capture = true
		}
	}
	t.mu.Unlock()

	mBurn.With("availability").Set(availBurn)
	mBurn.With("latency").Set(latBurn)

	if capture {
		mCaptures.Inc()
		if l := t.cfg.Logger; l != nil {
			l.Warn("slo burn-rate breach", "slo", breach, "burn_rate", worst,
				"window", t.cfg.Window.String(), "profile_dir", t.cfg.ProfileDir)
		}
		go func() {
			if err := t.cfg.Capture(breach, worst); err != nil && t.cfg.Logger != nil {
				t.cfg.Logger.Error("slo profile capture failed", "err", err.Error())
			}
		}()
	}
}

// advance expires buckets between the last observed second and now,
// subtracting them from the running window sums.
func (t *Tracker) advance(sec int64) {
	if t.lastSec == 0 {
		t.lastSec = sec
		b := &t.buckets[int(sec)%len(t.buckets)]
		*b = bucket{sec: sec}
		return
	}
	if sec <= t.lastSec {
		return // same second (or a clock step back: keep accumulating)
	}
	steps := sec - t.lastSec
	if steps > int64(len(t.buckets)) {
		steps = int64(len(t.buckets))
	}
	for i := int64(1); i <= steps; i++ {
		b := &t.buckets[int(t.lastSec+i)%len(t.buckets)]
		t.total -= b.total
		t.errors -= b.errors
		t.ok -= b.ok
		t.slow -= b.slow
		*b = bucket{sec: t.lastSec + i}
	}
	t.lastSec = sec
}

// burnLocked computes the two burn rates from the window sums.
func (t *Tracker) burnLocked() (avail, lat float64) {
	if t.total > 0 {
		badRatio := float64(t.errors) / float64(t.total)
		avail = badRatio / (1 - t.cfg.Availability)
	}
	if t.ok > 0 {
		slowRatio := float64(t.slow) / float64(t.ok)
		lat = slowRatio / (1 - latencyTarget)
	}
	return avail, lat
}

// BurnRates returns the current window's burn rates (availability,
// latency).
func (t *Tracker) BurnRates() (avail, lat float64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.burnLocked()
}

// Captures returns the process-wide count of breach captures.
func Captures() float64 { return mCaptures.Value() }

// captureProfiles writes a heap snapshot immediately and then a short
// CPU profile into cfg.ProfileDir, named after the breached SLO and
// the capture time.
func captureProfiles(cfg Config, kind string) error {
	if cfg.ProfileDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.ProfileDir, 0o755); err != nil {
		return err
	}
	stamp := cfg.Now().UTC().Format("20060102T150405")
	prefix := filepath.Join(cfg.ProfileDir, fmt.Sprintf("slo-%s-%s", kind, stamp))

	hf, err := os.Create(prefix + ".heap.pprof")
	if err != nil {
		return err
	}
	herr := pprof.Lookup("heap").WriteTo(hf, 0)
	if cerr := hf.Close(); herr == nil {
		herr = cerr
	}

	cf, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return herr
	}
	// Only one CPU profile can run per process; a concurrent profiler
	// (an operator on /debug/pprof/profile) wins and we keep the heap
	// snapshot.
	if err := pprof.StartCPUProfile(cf); err != nil {
		cf.Close()
		os.Remove(prefix + ".cpu.pprof")
		return herr
	}
	time.Sleep(cpuProfileDuration)
	pprof.StopCPUProfile()
	if cerr := cf.Close(); herr == nil {
		herr = cerr
	}
	return herr
}
