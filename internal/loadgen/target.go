package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"

	"expertfind"
)

// Class buckets every request outcome into the error taxonomy the
// report aggregates. The classes are deliberately coarse: fine enough
// to tell load shedding from genuine failure, coarse enough to diff
// across runs.
type Class string

// The taxonomy. ClassOK is success; everything else names a failure
// mode.
const (
	// ClassOK is a successful request.
	ClassOK Class = "ok"
	// ClassShed is a load-shed rejection: HTTP 503 "server
	// overloaded" / "corpus not ready" with a Retry-After hint:
	// expected behavior under overload, not a harness failure.
	ClassShed Class = "shed"
	// ClassTimeout is a deadline miss: client-side context deadline or
	// the server's 503 "request timed out".
	ClassTimeout Class = "timeout"
	// Class4xx is a client error (bad request, not found).
	Class4xx Class = "4xx"
	// Class5xx is a server error other than the classified 503s.
	Class5xx Class = "5xx"
	// ClassTransport is a connection-level failure (refused, reset,
	// EOF) before any HTTP status arrived.
	ClassTransport Class = "transport"
)

// Classes lists the taxonomy in report order.
var Classes = []Class{ClassOK, ClassShed, ClassTimeout, Class4xx, Class5xx, ClassTransport}

// Result is one request's outcome.
type Result struct {
	Class Class
	// Bytes is a deterministic response-cost proxy: the serialized
	// response size. Service models may scale simulated latency by it.
	Bytes int
	// Cache is the result-cache disposition when the target's system
	// caches rankings: "hit", "miss" or "coalesced" (the in-process
	// disposition, or the HTTP Cache-Status header). Empty when the
	// query bypassed caching. Service models may discount hit latency.
	Cache string
	// Err retains the underlying error for logging; nil for ClassOK.
	Err error
}

// Target serves one expertise need and classifies the outcome. Do
// must be safe for concurrent use.
type Target interface {
	Do(ctx context.Context, need string) Result
}

// TargetFunc adapts a function to the Target interface.
type TargetFunc func(ctx context.Context, need string) Result

// Do implements Target.
func (f TargetFunc) Do(ctx context.Context, need string) Result { return f(ctx, need) }

// NewFinderTarget drives the in-process pipeline: analysis, matching,
// index scoring, and graph expansion, without the HTTP layer. The
// ranking is truncated to top experts (0 = all) and Bytes is the JSON
// size of that list — mirroring what the HTTP handler serializes, so
// the two drivers' cost proxies stay comparable.
// The finder itself is not cancelable mid-query, so the deadline is
// enforced here: an expired context classifies as timeout whether it
// expired before or during the call.
func NewFinderTarget(sys *expertfind.System, top int, opts ...expertfind.FindOption) Target {
	return TargetFunc(func(ctx context.Context, need string) Result {
		if err := ctx.Err(); err != nil {
			return Result{Class: ClassTimeout, Err: err}
		}
		experts, cacheStatus, err := sys.FindCachedContext(ctx, need, opts...)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return Result{Class: ClassTimeout, Err: err}
			}
			return Result{Class: Class5xx, Err: err}
		}
		if err := ctx.Err(); err != nil {
			return Result{Class: ClassTimeout, Err: err}
		}
		if top > 0 && len(experts) > top {
			experts = experts[:top]
		}
		b, _ := json.Marshal(experts)
		return Result{Class: ClassOK, Bytes: len(b), Cache: cacheStatus}
	})
}

// NewHTTPTarget drives a live /v1/find endpoint. baseURL is the
// server root (e.g. "http://127.0.0.1:8080"); params are extra query
// parameters (top, alpha, ...) appended to every request. A nil
// client selects http.DefaultClient.
func NewHTTPTarget(client *http.Client, baseURL string, params url.Values) Target {
	if client == nil {
		client = http.DefaultClient
	}
	base := strings.TrimSuffix(baseURL, "/")
	return TargetFunc(func(ctx context.Context, need string) Result {
		q := url.Values{}
		for k, vs := range params {
			q[k] = vs
		}
		q.Set("q", need)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/find?"+q.Encode(), nil)
		if err != nil {
			return Result{Class: ClassTransport, Err: err}
		}
		resp, err := client.Do(req)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || os.IsTimeout(err) {
				return Result{Class: ClassTimeout, Err: err}
			}
			return Result{Class: ClassTransport, Err: err}
		}
		body, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if readErr != nil {
			return Result{Class: ClassTransport, Bytes: len(body), Err: readErr}
		}
		return Result{
			Class: classifyHTTP(resp.StatusCode, body),
			Bytes: len(body),
			Cache: resp.Header.Get("Cache-Status"),
		}
	})
}

// classifyHTTP maps an HTTP response to the taxonomy. The serving
// stack uses 503 for three distinct conditions — load shed, corpus
// not ready, and request timeout — distinguishable only by the error
// message, so the body participates in classification.
func classifyHTTP(status int, body []byte) Class {
	switch {
	case status < 400:
		return ClassOK
	case status == http.StatusServiceUnavailable:
		if strings.Contains(string(body), "timed out") {
			return ClassTimeout
		}
		return ClassShed
	case status == http.StatusGatewayTimeout:
		return ClassTimeout
	case status >= 500:
		return Class5xx
	default:
		return Class4xx
	}
}
