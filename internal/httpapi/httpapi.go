// Package httpapi exposes an expert finding System over HTTP with a
// small JSON API, so the expert selection service can back Web
// applications the way the paper envisions (crowd-searching front
// ends, question routers, recommendation systems).
//
// Endpoints:
//
//	GET /healthz                 liveness probe (always 200 while the process runs)
//	GET /readyz                  readiness probe (503 until a corpus is installed
//	                             or while the concurrency cap is saturated)
//	GET /version                 build info, Go version, uptime
//	GET /metrics                 Prometheus text exposition of the telemetry registry
//	GET /debug/traces            recent /v1 query traces with per-stage spans (JSON)
//	GET /v1/stats                corpus statistics
//	GET /v1/domains              known expertise domains
//	GET /v1/queries              the evaluation query set
//	GET /v1/experts?domain=D     ground-truth experts of a domain
//	GET /v1/find?q=...           ranked experts for an expertise need
//	GET /v1/bestnetwork?q=...    best platform + per-network rankings
//	GET /v1/explain?q=...&expert=N  evidence behind one expert's rank
//	GET /v1/ingest/status        continuous-ingest counters (404 when
//	                             no ingester is attached; see SetIngester)
//
// With Options.Debug, net/http/pprof is mounted under /debug/pprof/
// and expvar under /debug/vars.
//
// /v1/find accepts the optional parameters alpha (0..1), distance
// (0..2), window (int, 0 = no truncation), networks (comma-separated),
// friends (bool), topk (int, bound resource matching to the k best
// reachable matches with MaxScore pruning; 0 = no bound beyond the
// window, which bounds matching to its own size unless it is disabled)
// and top (int). When the handler manages a result
// cache (Options.Cache), /v1/find responses carry a Cache-Status
// header — hit, miss or coalesced — reporting how the ranking was
// obtained; cached rankings are byte-identical to cold ones.
//
// Every request carries an ID — the inbound X-Request-ID header when
// present, else generated — echoed as a response header, attached to
// log lines and to the trace recorded for /v1 requests. Every error
// response — including 404/405 fallbacks and 503s from the hardening
// middleware — carries the uniform JSON body {"error": "...",
// "request_id": "..."}; 503s additionally carry a Retry-After header.
package httpapi

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"expertfind"
	"expertfind/internal/ingest"
	"expertfind/internal/slo"
	"expertfind/internal/telemetry"
)

// base is what every handler of this package is built on — the
// single-process and shard Handler and the CoordinatorHandler alike:
// the mux with the common routes mounted, the middleware chain around
// it, and the guard every /v1 route runs behind. A handler adds its
// own /readyz, /debug/traces/{rid} and /v1 routes to mux.
type base struct {
	mux    *http.ServeMux
	opts   Options
	sem    chan struct{}
	root   http.Handler
	tracer *telemetry.Tracer
	// onKept, when set, runs on its own goroutine for every /v1 trace
	// Finish placed in the keep ring (the coordinator assembles the
	// query's cross-process timeline while shards still hold their side).
	onKept func(rid string)
}

// newBase mounts the routes that do not depend on what is served.
func newBase(opts Options) base {
	b := base{mux: http.NewServeMux(), opts: opts, tracer: opts.Tracer}
	if b.tracer == nil {
		b.tracer = telemetry.DefaultTracer()
	}
	if opts.MaxConcurrent > 0 {
		b.sem = make(chan struct{}, opts.MaxConcurrent)
	}
	mux, tracer := b.mux, b.tracer
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /version", serveVersion)
	mux.Handle("GET /metrics", telemetry.MetricsHandler(telemetry.Default()))
	mux.Handle("GET /debug/traces", telemetry.TracesHandler(tracer))
	mux.HandleFunc("GET /debug/slow", func(w http.ResponseWriter, r *http.Request) {
		serveSlow(tracer, w, r)
	})
	if opts.Debug {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		mux.Handle("GET /debug/vars", expvar.Handler())
	}
	// Request IDs outermost, then logging, the per-request deadline,
	// and panic recovery innermost around the dispatch.
	root := withRecovery(opts.Logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dispatchMux(mux, opts.SLO, w, r)
	}))
	if opts.RequestTimeout > 0 {
		root = withTimeout(opts, root)
	}
	if opts.Logger != nil {
		root = withLogging(opts.Logger, root)
	}
	b.root = withRequestID(root)
	return b
}

// ServeHTTP implements http.Handler.
func (b *base) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.root.ServeHTTP(w, r)
}

// Handler serves the JSON API over a System.
type Handler struct {
	base
	sys atomic.Pointer[expertfind.System]
	ing atomic.Pointer[ingest.Ingester]
}

// New returns the API handler with default (zero) Options.
func New(sys *expertfind.System) *Handler {
	return NewWithOptions(sys, Options{})
}

// NewWithOptions returns the API handler with the serving-path
// hardening described by opts. sys may be nil: the probe endpoints
// work immediately while /v1 answers 503 until SetSystem installs a
// corpus, so the listener can come up before the index is built.
func NewWithOptions(sys *expertfind.System, opts Options) *Handler {
	h := &Handler{base: newBase(opts)}
	if sys != nil {
		h.SetSystem(sys)
	}
	h.mux.HandleFunc("GET /readyz", h.ready)
	h.mux.HandleFunc("GET /debug/traces/{rid}", h.traceByID)
	h.mux.HandleFunc("GET /v1/stats", h.v1(h.stats))
	h.mux.HandleFunc("GET /v1/domains", h.v1(h.domains))
	h.mux.HandleFunc("GET /v1/queries", h.v1(h.queries))
	h.mux.HandleFunc("GET /v1/experts", h.v1(h.experts))
	h.mux.HandleFunc("GET /v1/find", h.v1(h.find))
	h.mux.HandleFunc("GET /v1/bestnetwork", h.v1(h.bestNetwork))
	h.mux.HandleFunc("GET /v1/explain", h.v1(h.explain))
	// The ingest status endpoint sits outside the v1 guard: the
	// counters are ops state, meaningful even while the corpus is
	// rebuilding or the concurrency cap is saturated.
	h.mux.HandleFunc("GET /v1/ingest/status", h.ingestStatus)
	if opts.Shard != nil {
		h.mux.HandleFunc("GET /v1/shard/meta", h.v1(h.shardMeta))
		h.mux.HandleFunc("GET /v1/shard/stats", h.v1(h.shardStats))
		h.mux.HandleFunc("POST /v1/shard/find", h.v1(h.shardFind))
		// Trace fetch stays outside the v1 guard: the coordinator
		// assembles timelines even while this shard's corpus is
		// rebuilding or its concurrency cap is saturated, and the fetch
		// itself must not record a trace of its own.
		h.mux.HandleFunc("GET /v1/shard/trace", h.shardTrace)
	}
	return h
}

// v1 guards a route that needs the corpus installed.
func (h *Handler) v1(f func(*expertfind.System, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return guard(&h.base, h.sys.Load, f)
}

// SetSystem atomically installs (or swaps) the served System. Until
// the first call with a non-nil System, /readyz and all /v1 routes
// answer 503. With Options.Cache configured, each install attaches a
// fresh cache generation to the incoming System — purging the
// previous corpus's entries — and a nil install invalidates the
// cache, so rankings can never outlive the corpus that produced them.
func (h *Handler) SetSystem(sys *expertfind.System) {
	if c := h.opts.Cache; c != nil {
		if sys != nil {
			sys.SetResultCache(c.Attach())
		} else {
			c.Invalidate()
		}
	}
	h.sys.Store(sys)
}

// SetIngester attaches (or, with nil, detaches) the continuous-ingest
// driver whose cumulative counters /v1/ingest/status serves. Without
// one the endpoint answers 404, so probes can tell "ingest disabled"
// from "no rounds yet".
func (h *Handler) SetIngester(ing *ingest.Ingester) {
	h.ing.Store(ing)
}

func (h *Handler) ingestStatus(w http.ResponseWriter, r *http.Request) {
	ing := h.ing.Load()
	if ing == nil {
		writeError(w, r, http.StatusNotFound, "ingest not enabled")
		return
	}
	writeJSON(w, http.StatusOK, ing.Status())
}

// dispatchMux dispatches through the mux, measuring every request
// into the per-route metrics (count by status, latency histogram,
// in-flight gauge) and rewriting the mux's plain-text 404/405 fallbacks
// into the API's uniform JSON error shape while preserving the status
// and the Allow header the mux computes. It also reports the matched
// route to the access-log middleware and observes every /v1 request
// into the SLO burn-rate tracker.
func dispatchMux(mux *http.ServeMux, st *slo.Tracker, w http.ResponseWriter, r *http.Request) {
	handler, pattern := mux.Handler(r)
	route := routeLabel(pattern)
	if rh, ok := r.Context().Value(routeCtxKey{}).(*routeHolder); ok {
		rh.set(route)
	}
	mInFlight.Inc()
	defer mInFlight.Dec()
	t0 := time.Now()
	sw := &statusWriter{ResponseWriter: w}

	if pattern != "" {
		// Dispatch through the mux (not the handler mux.Handler returned)
		// so wildcard patterns like /debug/traces/{rid} get their path
		// values bound.
		mux.ServeHTTP(sw, r)
	} else {
		rec := &timeoutWriter{header: make(http.Header)}
		handler.ServeHTTP(rec, r)
		status := rec.status
		if status == 0 {
			status = http.StatusNotFound
		}
		if allow := rec.header.Get("Allow"); allow != "" {
			sw.Header().Set("Allow", allow)
		}
		writeError(sw, r, status, http.StatusText(status))
	}

	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	mDuration.With(route).ObserveSince(t0)
	mRequests.With(route, strconv.Itoa(status)).Inc()
	if st != nil && strings.Contains(route, " /v1/") {
		st.Observe(status, time.Since(t0))
	}
}

// guard wraps a /v1 route: shed load when the concurrency cap is
// saturated, and refuse with 503 until load returns what the route
// answers from (the installed corpus; a coordinator always has its
// topology client). The probe endpoints bypass this, so /healthz stays
// 200 while /v1 sheds. Every request — including shed and not-ready
// refusals — runs under a telemetry trace (named after the route,
// identified by the request ID) that records the response status;
// shed, errored and degraded traces are marked for tail-sampled
// retention so /debug/traces/{rid} can still find them after a flood
// of healthy queries. On a shard process, the coordinator's span
// header nests the trace under the fan-out attempt that carried it.
func guard[T any](b *base, load func() *T, f func(*T, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, tr := b.tracer.Start(r.Context(), r.Method+" "+r.URL.Path, requestID(r.Context()))
		defer func() {
			tr.Finish()
			if b.onKept != nil && tr.WasKept() {
				go b.onKept(tr.ID())
			}
		}()
		if q := r.URL.Query().Get("q"); q != "" {
			tr.SetAttr("q", q)
		}
		if parent := sanitizeRequestID(r.Header.Get(telemetry.SpanHeader)); parent != "" {
			tr.SetParentSpan(parent)
		}
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			tr.SetAttr("status", strconv.Itoa(status))
			if sw.Header().Get(DegradedHeader) != "" {
				tr.Keep("degraded")
			}
			if status >= 500 {
				tr.Keep("error")
			}
		}()
		if b.sem != nil {
			select {
			case b.sem <- struct{}{}:
				defer func() { <-b.sem }()
			default:
				mShed.Inc()
				tr.Keep("shed")
				b.opts.writeUnavailable(sw, r, "server overloaded")
				return
			}
		}
		v := load()
		if v == nil {
			b.opts.writeUnavailable(sw, r, "corpus not ready")
			return
		}
		f(v, sw, r.WithContext(ctx))
	}
}

// ready reports whether the service can usefully answer /v1 traffic:
// a corpus must be installed and the concurrency cap must have head
// room (a saturated cap is the serving-side analogue of an open
// circuit breaker — tell the balancer to route elsewhere).
func (h *Handler) ready(w http.ResponseWriter, r *http.Request) {
	if h.sys.Load() == nil {
		h.opts.writeUnavailable(w, r, "corpus not ready")
		return
	}
	if h.sem != nil && len(h.sem) == cap(h.sem) {
		h.opts.writeUnavailable(w, r, "server overloaded")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (h *Handler) stats(sys *expertfind.System, w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sys.Stats())
}

func (h *Handler) domains(_ *expertfind.System, w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, expertfind.Domains())
}

func (h *Handler) queries(sys *expertfind.System, w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sys.Queries())
}

func (h *Handler) experts(sys *expertfind.System, w http.ResponseWriter, r *http.Request) {
	domain := r.URL.Query().Get("domain")
	if domain == "" {
		writeError(w, r, http.StatusBadRequest, "missing required parameter: domain")
		return
	}
	experts, err := sys.Experts(domain)
	if err != nil {
		writeError(w, r, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"domain": domain, "experts": experts})
}

// findResponse is the payload of /v1/find.
type findResponse struct {
	Need    string              `json:"need"`
	Experts []expertfind.Expert `json:"experts"`
}

func (h *Handler) find(sys *expertfind.System, w http.ResponseWriter, r *http.Request) {
	need := r.URL.Query().Get("q")
	if need == "" {
		writeError(w, r, http.StatusBadRequest, "missing required parameter: q")
		return
	}
	opts, top, err := parseOptions(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	opts = h.applyDefaultTopK(r, opts)
	experts, cacheStatus, err := sys.FindCachedContext(r.Context(), need, opts...)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if cacheStatus != "" {
		w.Header().Set("Cache-Status", cacheStatus)
	}
	if top > 0 && len(experts) > top {
		experts = experts[:top]
	}
	writeJSON(w, http.StatusOK, findResponse{Need: need, Experts: experts})
}

// bestNetworkResponse is the payload of /v1/bestnetwork.
type bestNetworkResponse struct {
	Need     string                                     `json:"need"`
	Best     expertfind.Network                         `json:"best"`
	Rankings map[expertfind.Network][]expertfind.Expert `json:"rankings"`
}

func (h *Handler) bestNetwork(sys *expertfind.System, w http.ResponseWriter, r *http.Request) {
	need := r.URL.Query().Get("q")
	if need == "" {
		writeError(w, r, http.StatusBadRequest, "missing required parameter: q")
		return
	}
	opts, top, err := parseOptions(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	opts = h.applyDefaultTopK(r, opts)
	best, rankings, err := sys.BestNetworkContext(r.Context(), need, opts...)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if top > 0 {
		for net, experts := range rankings {
			if len(experts) > top {
				rankings[net] = experts[:top]
			}
		}
	}
	writeJSON(w, http.StatusOK, bestNetworkResponse{Need: need, Best: best, Rankings: rankings})
}

func (h *Handler) explain(sys *expertfind.System, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	need, expert := q.Get("q"), q.Get("expert")
	if need == "" || expert == "" {
		writeError(w, r, http.StatusBadRequest, "missing required parameters: q, expert")
		return
	}
	opts, top, err := parseOptions(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if top == 0 {
		top = 5
	}
	expl, err := sys.Explain(need, expert, top, opts...)
	if err != nil {
		writeError(w, r, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, expl)
}

// applyDefaultTopK appends the handler's default top-k bound when the
// request did not choose one itself (including an explicit topk=0 to
// leave the window as the only bound).
func (h *Handler) applyDefaultTopK(r *http.Request, opts []expertfind.FindOption) []expertfind.FindOption {
	if h.opts.DefaultTopK > 0 && !r.URL.Query().Has("topk") {
		opts = append(opts, expertfind.WithTopK(h.opts.DefaultTopK))
	}
	return opts
}

// parseOptions converts query parameters into Find options.
func parseOptions(r *http.Request) (opts []expertfind.FindOption, top int, err error) {
	q := r.URL.Query()
	if v := q.Get("alpha"); v != "" {
		alpha, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("invalid alpha %q", v)
		}
		opts = append(opts, expertfind.WithAlpha(alpha))
	}
	if v := q.Get("distance"); v != "" {
		d, err := strconv.Atoi(v)
		if err != nil {
			return nil, 0, fmt.Errorf("invalid distance %q", v)
		}
		opts = append(opts, expertfind.WithMaxDistance(d))
	}
	if v := q.Get("window"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, 0, fmt.Errorf("invalid window %q", v)
		}
		opts = append(opts, expertfind.WithWindow(n))
	}
	if v := q.Get("networks"); v != "" {
		var nets []expertfind.Network
		for _, n := range strings.Split(v, ",") {
			nets = append(nets, expertfind.Network(strings.TrimSpace(n)))
		}
		opts = append(opts, expertfind.WithNetworks(nets...))
	}
	if v := q.Get("friends"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			return nil, 0, fmt.Errorf("invalid friends %q", v)
		}
		if on {
			opts = append(opts, expertfind.WithFriends())
		}
	}
	if v := q.Get("topk"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 0 {
			return nil, 0, fmt.Errorf("invalid topk %q", v)
		}
		opts = append(opts, expertfind.WithTopK(k))
	}
	if v := q.Get("top"); v != "" {
		top, err = strconv.Atoi(v)
		if err != nil || top < 0 {
			return nil, 0, fmt.Errorf("invalid top %q", v)
		}
	}
	return opts, top, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError sends the uniform JSON error body, tagged with the
// request's ID when the middleware chain assigned one (so a client
// report and the server's log line can be correlated).
func writeError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	body := map[string]string{"error": msg}
	if id := requestID(r.Context()); id != "" {
		body["request_id"] = id
	}
	writeJSON(w, status, body)
}
