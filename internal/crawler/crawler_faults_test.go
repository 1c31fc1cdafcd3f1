package crawler

import (
	"testing"

	"expertfind/internal/faults"
	"expertfind/internal/socialgraph"
)

// faultCfg is a noisy but survivable API: 15% transient failures,
// 10% rate limits.
func faultCfg() faults.Config {
	return faults.Config{Seed: 11, TransientRate: 0.15, RateLimitRate: 0.10}
}

func TestRetriesRecoverResources(t *testing.T) {
	ds := remote(t)
	full, _ := Crawl(ds.Graph, FullAccess)

	bare, bareStats := CrawlAPI(faults.Wrap(ds.Graph, faultCfg()), FullAccess, Resilience{})
	hardened, hardStats := CrawlAPI(faults.Wrap(ds.Graph, faultCfg()), FullAccess, DefaultResilience)

	if bareStats.GaveUp == 0 || bareStats.FailedCalls == 0 {
		t.Fatalf("bare client saw no faults: %+v", bareStats)
	}
	if bareStats.Retries != 0 {
		t.Errorf("bare client retried: %+v", bareStats)
	}
	if hardStats.Retries == 0 {
		t.Fatalf("hardened client never retried: %+v", hardStats)
	}
	if hardStats.GaveUp >= bareStats.GaveUp {
		t.Errorf("retries did not reduce give-ups: %d vs %d", hardStats.GaveUp, bareStats.GaveUp)
	}
	// The acceptance bar: with retries on, a faulted crawl recovers at
	// least as many resources as the same crawl with retries off, and
	// approaches the fault-free crawl.
	if hardened.NumResources() < bare.NumResources() {
		t.Errorf("retries lost resources: %d < %d", hardened.NumResources(), bare.NumResources())
	}
	if hardened.NumResources() > full.NumResources() {
		t.Errorf("faulted crawl exceeds the fault-free one: %d > %d",
			hardened.NumResources(), full.NumResources())
	}
	t.Logf("resources: fault-free=%d bare=%d hardened=%d (retries=%d gaveUp=%d→%d)",
		full.NumResources(), bare.NumResources(), hardened.NumResources(),
		hardStats.Retries, bareStats.GaveUp, hardStats.GaveUp)
}

func TestFaultedStatsDeterministic(t *testing.T) {
	ds := remote(t)
	run := func() Stats {
		_, st := CrawlAPI(faults.Wrap(ds.Graph, faultCfg()), Policy{ProfileAccessProb: 0.5, Seed: 4}, DefaultResilience)
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", a, b)
	}
	if a.Retries == 0 || a.FailedCalls == 0 {
		t.Errorf("expected nonzero retry counters: %+v", a)
	}
}

func TestOutageDropsNetworkAndTripsBreaker(t *testing.T) {
	ds := remote(t)
	cfg := faults.Config{Seed: 2, Outages: []socialgraph.Network{socialgraph.Twitter}}
	crawled, st := CrawlAPI(faults.Wrap(ds.Graph, cfg), FullAccess, DefaultResilience)

	if st.BreakerTrips == 0 {
		t.Errorf("breaker never tripped during a hard outage: %+v", st)
	}
	if st.GaveUp == 0 {
		t.Errorf("no fetches given up during the outage: %+v", st)
	}
	counts := map[socialgraph.Network]int{}
	for i := 0; i < crawled.NumResources(); i++ {
		counts[crawled.Resource(socialgraph.ResourceID(i)).Network]++
	}
	if counts[socialgraph.Twitter] != 0 {
		t.Errorf("twitter resources crawled during its outage: %d", counts[socialgraph.Twitter])
	}
	if counts[socialgraph.Facebook] == 0 || counts[socialgraph.LinkedIn] == 0 {
		t.Errorf("healthy networks starved: %v", counts)
	}
}

func TestBreakerSavesCallBudget(t *testing.T) {
	ds := remote(t)
	cfg := faults.Config{Seed: 2, Outages: []socialgraph.Network{socialgraph.Twitter}}
	_, withBreaker := CrawlAPI(faults.Wrap(ds.Graph, cfg), FullAccess, DefaultResilience)
	_, without := CrawlAPI(faults.Wrap(ds.Graph, cfg), FullAccess, Resilience{Retry: DefaultResilience.Retry})
	if withBreaker.APICalls >= without.APICalls {
		t.Errorf("breaker did not save calls: %d vs %d", withBreaker.APICalls, without.APICalls)
	}
}

// TestAPICallsCountEveryAttempt checks that Stats.APICalls counts
// exactly the attempts that reached the platform, retries included,
// and FailedCalls exactly the ones it failed; a call an open breaker
// blocks reaches neither count.
func TestAPICallsCountEveryAttempt(t *testing.T) {
	ds := remote(t)
	outage := faults.Config{Seed: 2, Outages: []socialgraph.Network{socialgraph.Twitter}}
	for _, cfg := range []faults.Config{faultCfg(), outage} {
		api := faults.Wrap(ds.Graph, cfg)
		_, st := CrawlAPI(api, FullAccess, DefaultResilience)
		ist := api.Stats()
		if st.APICalls != ist.Calls {
			t.Errorf("faults %+v: crawler counted %d calls, the platform served %d", cfg, st.APICalls, ist.Calls)
		}
		if failed := ist.Transients + ist.RateLimits + ist.OutageFailures; st.FailedCalls != failed {
			t.Errorf("faults %+v: crawler counted %d failed calls, the platform failed %d", cfg, st.FailedCalls, failed)
		}
		if st.Retries == 0 && st.BreakerTrips == 0 {
			t.Errorf("faults %+v: neither retries nor breaker trips: %+v", cfg, st)
		}
	}
}

func TestCandidateWithZeroFollows(t *testing.T) {
	g := socialgraph.New()
	u := g.AddUser("hermit", true)
	g.SetProfile(u, socialgraph.LinkedIn, "distributed systems consultant")
	crawled, st := Crawl(g, FullAccess)
	if st.UsersVisited != 1 || st.UsersDenied != 0 {
		t.Errorf("stats = %+v", st)
	}
	if _, ok := crawled.Profile(u, socialgraph.LinkedIn); !ok {
		t.Error("profile of the follow-less candidate lost")
	}
	if crawled.NumResources() != 1 {
		t.Errorf("resources = %d, want just the profile", crawled.NumResources())
	}
}
