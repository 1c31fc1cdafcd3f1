package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ScatterCluster runs a real multi-process scatter-gather deployment
// of one binary: N shard-mode cmd/serve processes over disjoint corpus
// slices and a `serve -shards` coordinator front, all on loopback
// ports. Faults here are the real thing — KillShard delivers SIGKILL
// to a live process and RestartShard brings a replacement up on the
// same port, so the harness exercises genuine connection refusals,
// breaker trips, and degraded-mode recovery.
type ScatterCluster struct {
	cfg    ScatterConfig
	shards []*managedProc
	coord  *managedProc
	client *http.Client
}

// ScatterConfig parameterizes StartScatter.
type ScatterConfig struct {
	// ServeBin is the prebuilt cmd/serve binary (see BuildServe) every
	// process of the topology runs.
	ServeBin string
	// Shards is the number of shard processes (and the -shard-count
	// each is started with).
	Shards int
	// CorpusSeed and Scale select the corpus every shard generates its
	// slice of; they must match the single-process baseline the caller
	// compares against.
	CorpusSeed int64
	Scale      float64
	// IndexShards is each process's in-process scoring parallelism
	// (0 = GOMAXPROCS); it does not affect result bytes.
	IndexShards int
	// ShardSLOLatency, when positive, is passed to every shard process
	// as its -slo-latency objective. The harness sets it absurdly low
	// to induce a latency-SLO breach and assert the on-breach pprof
	// capture fires exactly once.
	ShardSLOLatency time.Duration
	// ShardPprofDir, when set, gives each shard process a private
	// -pprof-dir subdirectory (<dir>/shard<i>) for breach captures, so
	// concurrent captures never collide on file names.
	ShardPprofDir string
	// Logf receives child process output and cluster lifecycle notes;
	// nil discards.
	Logf func(format string, args ...any)
}

const (
	// healthInterval is the coordinator's shard probe cadence: snappy, so
	// kill/restart transitions are visible to /readyz quickly.
	healthInterval = 200 * time.Millisecond
	// startTimeout bounds each readiness wait: slice corpus builds run
	// once per process, race-instrumented in -race runs.
	startTimeout = 120 * time.Second
)

func (c ScatterConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// BuildServe compiles cmd/serve into dir and returns the binary's
// path. When the calling test binary was built with -race the children
// are race-instrumented too, so the chaos scenario runs under the race
// detector end to end.
func BuildServe(dir string) (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "serve")
	args := []string{"build"}
	if RaceEnabled {
		args = append(args, "-race")
	}
	cmd := exec.Command("go", append(args, "-o", bin, "./cmd/serve")...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build serve: %v\n%s", err, out)
	}
	return bin, nil
}

func moduleRoot() (string, error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return "", fmt.Errorf("locate module root: %v", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// managedProc is one child process pinned to a loopback address, so a
// restart comes back where the coordinator expects it.
type managedProc struct {
	name string
	bin  string
	args []string
	addr string // host:port, stable across restarts

	mu   sync.Mutex
	cmd  *exec.Cmd
	done chan struct{} // closed when the current cmd is reaped
}

func (p *managedProc) base() string { return "http://" + p.addr }

// start spawns the process. The caller supplies Logf-backed stdio.
func (p *managedProc) start(logf func(string, ...any)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd != nil {
		return fmt.Errorf("%s already running", p.name)
	}
	cmd := exec.Command(p.bin, p.args...)
	w := &lineWriter{prefix: p.name, logf: logf}
	cmd.Stdout = w
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %v", p.name, err)
	}
	done := make(chan struct{})
	go func() {
		cmd.Wait()
		w.flush()
		close(done)
	}()
	p.cmd, p.done = cmd, done
	return nil
}

// kill delivers SIGKILL and reaps the process.
func (p *managedProc) kill() error {
	p.mu.Lock()
	cmd, done := p.cmd, p.done
	p.cmd, p.done = nil, nil
	p.mu.Unlock()
	if cmd == nil {
		return fmt.Errorf("%s not running", p.name)
	}
	cmd.Process.Kill()
	<-done
	return nil
}

// lineWriter forwards child stdio to logf one line at a time,
// prefixed with the process name.
type lineWriter struct {
	prefix string
	logf   func(string, ...any)

	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *lineWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(b)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil {
			w.buf.WriteString(line) // incomplete line: keep for later
			break
		}
		if w.logf != nil {
			w.logf("[%s] %s", w.prefix, strings.TrimRight(line, "\n"))
		}
	}
	return len(b), nil
}

func (w *lineWriter) flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.buf.Len() > 0 && w.logf != nil {
		w.logf("[%s] %s", w.prefix, w.buf.String())
	}
	w.buf.Reset()
}

// StartScatter boots the topology: Shards serve processes (shard i
// started with -shard-id i -shard-count N) plus one more started with
// -shards pointing at all of them, then waits until that coordinator
// reports full readiness — every slice built and every shard probed
// up. Call Close to tear everything down.
func StartScatter(cfg ScatterConfig) (*ScatterCluster, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("scatter: Shards must be positive")
	}
	addrs, err := reserveAddrs(cfg.Shards + 1)
	if err != nil {
		return nil, err
	}
	cl := &ScatterCluster{
		cfg:    cfg,
		client: &http.Client{Timeout: 5 * time.Second},
	}
	bases := make([]string, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		args := []string{
			"-addr", addrs[i],
			"-seed", strconv.FormatInt(cfg.CorpusSeed, 10),
			"-scale", strconv.FormatFloat(cfg.Scale, 'g', -1, 64),
			"-index-shards", strconv.Itoa(cfg.IndexShards),
			"-shard-id", strconv.Itoa(i),
			"-shard-count", strconv.Itoa(cfg.Shards),
		}
		if cfg.ShardSLOLatency > 0 {
			args = append(args, "-slo-latency", cfg.ShardSLOLatency.String())
		}
		if cfg.ShardPprofDir != "" {
			args = append(args, "-pprof-dir", filepath.Join(cfg.ShardPprofDir, fmt.Sprintf("shard%d", i)))
		}
		p := &managedProc{
			name: fmt.Sprintf("shard%d", i),
			bin:  cfg.ServeBin,
			addr: addrs[i],
			args: args,
		}
		cl.shards = append(cl.shards, p)
		bases[i] = p.base()
	}
	cl.coord = &managedProc{
		name: "coordinator",
		bin:  cfg.ServeBin,
		addr: addrs[cfg.Shards],
		args: []string{
			"-addr", addrs[cfg.Shards],
			"-shards", strings.Join(bases, ","),
			"-health-interval", healthInterval.String(),
		},
	}
	for _, p := range append(append([]*managedProc{}, cl.shards...), cl.coord) {
		if err := p.start(cfg.logf); err != nil {
			cl.Close()
			return nil, err
		}
	}
	cfg.logf("cluster: %d shards + coordinator at %s", cfg.Shards, cl.CoordinatorURL())
	if err := cl.WaitCoordinator("ready", startTimeout); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// reserveAddrs picks n free loopback ports by binding and releasing
// them. The window between release and the child's bind is racy in
// principle; in practice nothing else grabs an ephemeral port that
// fast, and a collision fails loudly at child startup.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %v", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// CoordinatorURL is the base URL queries should target.
func (c *ScatterCluster) CoordinatorURL() string { return c.coord.base() }

// ShardURL is shard i's base URL.
func (c *ScatterCluster) ShardURL(i int) string { return c.shards[i].base() }

// KillShard SIGKILLs shard i — no draining, no goodbye, exactly what
// a crashed or OOM-killed replica looks like to the coordinator.
func (c *ScatterCluster) KillShard(i int) error {
	c.cfg.logf("cluster: SIGKILL shard %d", i)
	return c.shards[i].kill()
}

// RestartShard starts a replacement for shard i on its original port
// and waits for the new process to finish building its slice.
func (c *ScatterCluster) RestartShard(i int) error {
	c.cfg.logf("cluster: restart shard %d", i)
	if err := c.shards[i].start(c.cfg.logf); err != nil {
		return err
	}
	return c.waitHTTP(c.ShardURL(i)+"/readyz", startTimeout, func(status int, _ []byte) bool {
		return status == http.StatusOK
	})
}

// WaitCoordinator polls the coordinator's /readyz until it reports
// the wanted status ("ready" or "degraded") or the timeout elapses.
func (c *ScatterCluster) WaitCoordinator(status string, timeout time.Duration) error {
	marker := []byte(`"` + status + `"`)
	return c.waitHTTP(c.CoordinatorURL()+"/readyz", timeout, func(code int, body []byte) bool {
		return code == http.StatusOK && bytes.Contains(body, marker)
	})
}

func (c *ScatterCluster) waitHTTP(url string, timeout time.Duration, ok func(int, []byte) bool) error {
	deadline := time.Now().Add(timeout)
	var lastCode int
	var lastBody []byte
	for time.Now().Before(deadline) {
		resp, err := c.client.Get(url)
		if err == nil {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if ok(resp.StatusCode, body) {
				return nil
			}
			lastCode, lastBody = resp.StatusCode, body
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("wait %s: timed out after %v (last: %d %s)", url, timeout, lastCode, lastBody)
}

// Metric scrapes the coordinator's /metrics and returns the summed
// value of the named family across all label sets (the value itself
// for unlabeled metrics). Missing families return 0 with ok=false.
func (c *ScatterCluster) Metric(name string) (float64, bool, error) {
	return c.metricFrom(c.CoordinatorURL(), name)
}

// ShardMetric scrapes shard i's /metrics the same way.
func (c *ScatterCluster) ShardMetric(i int, name string) (float64, bool, error) {
	return c.metricFrom(c.ShardURL(i), name)
}

func (c *ScatterCluster) metricFrom(base, name string) (float64, bool, error) {
	resp, err := c.client.Get(base + "/metrics")
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, false, err
	}
	sum, ok := 0.0, false
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		metric := line[:sp]
		if metric != name && !strings.HasPrefix(metric, name+"{") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return 0, false, fmt.Errorf("parse %q: %v", line, err)
		}
		sum += v
		ok = true
	}
	return sum, ok, nil
}

// Close SIGKILLs every process still running. Safe to call more than
// once and after individual kills.
func (c *ScatterCluster) Close() {
	for _, p := range append(append([]*managedProc{}, c.shards...), c.coord) {
		if p != nil {
			p.kill() // "not running" errors are fine here
		}
	}
}
