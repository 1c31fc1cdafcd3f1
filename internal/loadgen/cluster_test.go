package loadgen

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestScatterClusterChaos runs the real-process chaos scenario:
// build the one serve binary, boot a 2-shard topology behind a
// `serve -shards` coordinator,
// SIGKILL one shard mid-life, verify queries degrade to partial
// results instead of failing, restart the shard, and verify full
// recovery. Under -race the children are race-instrumented too.
func TestScatterClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and corpus slices")
	}
	serveBin, err := BuildServe(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartScatter(ScatterConfig{
		ServeBin:   serveBin,
		Shards:     2,
		CorpusSeed: 1,
		Scale:      0.05,
		// One scoring goroutine per shard process keeps the tiny
		// corpus cheap; scoring parallelism never changes result bytes.
		IndexShards: 1,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(cl.CoordinatorURL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp, string(body)
	}
	const need = "/v1/find?q=database+systems&top=3"

	resp, body := get(need)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy find: %d %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Expertfind-Degraded"); h != "" {
		t.Fatalf("healthy topology sent degraded header %q", h)
	}
	healthyBody := body

	if v, ok, err := cl.Metric("expertfind_scatter_shards_down"); err != nil || !ok || v != 0 {
		t.Errorf("shards_down = %v, %v, %v; want 0, true, nil", v, ok, err)
	}

	if err := cl.KillShard(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitCoordinator("degraded", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	resp, body = get(need)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded find: %d %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Expertfind-Degraded"); h != "shards=1/2" {
		t.Errorf("degraded header = %q, want shards=1/2", h)
	}
	if !strings.Contains(body, `"degraded":{"shards_down":1,"shards_total":2}`) {
		t.Errorf("degraded body missing marker: %s", body)
	}
	if v, ok, err := cl.Metric("expertfind_scatter_degraded_queries_total"); err != nil || !ok || v < 1 {
		t.Errorf("degraded_queries_total = %v, %v, %v; want >= 1", v, ok, err)
	}

	if err := cl.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitCoordinator("ready", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	// The shard's breaker may still be open for one cooldown after the
	// restart; poll until a find comes back whole again.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, body = get(need)
		if resp.StatusCode == http.StatusOK && resp.Header.Get("X-Expertfind-Degraded") == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("find never recovered: %d %q %s", resp.StatusCode, resp.Header.Get("X-Expertfind-Degraded"), body)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if body != healthyBody {
		t.Errorf("recovered response diverged from pre-kill response:\n before: %s\n after:  %s", healthyBody, body)
	}

	// Double kill is an error, as is closing twice a no-op.
	if err := cl.KillShard(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.KillShard(1); err == nil {
		t.Error("second kill of the same shard succeeded")
	}
	cl.Close()
	cl.Close()
}
