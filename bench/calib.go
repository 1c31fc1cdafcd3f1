package main

import (
	"runtime"
	"slices"
	"time"
)

// The machines this ledger runs on are small shared VMs whose speed
// drifts by tens of percent over minutes: across twelve runs within a
// quarter of an hour the same mem_find requests showed a best-of-K
// median between 0.39 and 0.48 ms, and a fixed kernel that has nothing
// to do with the repository moved with them. Best-of-K removes the
// spikes inside a run but not a slow quarter of an hour, so each run
// also measures the machine: reference() is timed at fixed slots inside
// every pass, under the same best-of-K rule as the requests around it,
// and every timing metric is scaled by refNominal ÷ (the run's mean
// best reference time). The metrics therefore read in ms on a machine
// of nominal speed. Only the benchmark's own code runs in reference(),
// so no change to the repository can move the scale.
//
// The kernel is shaped like a find on purpose. Three shapes were
// compared on how well they cancel the drift of mem_find's median
// (spread of twelve runs, raw 8.8 %): one goroutine, no allocation
// 5.9 %; two goroutines, no allocation 4.1 %; two goroutines that also
// fill a map 3.5 %. A find scores two shards on two cores and
// allocates a few hundred KiB, so it loses more than a single-threaded
// cache-resident loop does when a neighbour takes a core or the memory
// bus; the third shape is the one kept.

// refNominal is reference()'s duration on the builder's VM in a quiet
// moment: the speed at which reported times equal measured times.
const refNominal = 480 * time.Microsecond

// refCPUNominal is the process CPU one reference call costs at nominal
// speed: two goroutines busy for its whole duration.
const refCPUNominal = 2 * refNominal

// refState is one goroutine's half of the reference work.
type refState struct {
	table [1 << 15]float64
	keys  [4096]int32
}

// run is scattered accumulation into a table and a growing map, then a
// sort: index scoring in miniature.
func (r *refState) run() float64 {
	x := uint64(88172645463325252)
	clear(r.table[:])
	m := make(map[int32]float64)
	for i := 0; i < 40000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.table[x&(1<<15-1)] += float64(x>>40) * 0.5
		if i%8 == 0 {
			m[int32(x%6000)]++
		}
	}
	for i := range r.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.keys[i] = int32(x)
	}
	slices.Sort(r.keys[:])
	return r.table[7] + float64(r.keys[0]) + float64(len(m))
}

var (
	refPair [2]refState
	refSink float64
)

// timeReference runs the reference once, on two goroutines, and
// returns how long it took.
func timeReference() time.Duration {
	t0 := time.Now()
	done := make(chan float64, len(refPair))
	for i := range refPair {
		go func(r *refState) { done <- r.run() }(&refPair[i])
	}
	for range refPair {
		refSink += <-done
	}
	return time.Since(t0)
}

// referenceNow estimates the machine's speed at this moment, for
// scaling a one-off duration such as a set-up: the median of sixteen
// best-of-eight groups, so that neither a spike nor one lucky call
// decides it. It takes about 60 ms.
func referenceNow() time.Duration {
	groups := make([]time.Duration, 16)
	for g := range groups {
		best := timeReference()
		for i := 1; i < 8; i++ {
			best = min(best, timeReference())
		}
		groups[g] = best
	}
	return sorted(groups)[len(groups)/2]
}

// referenceAllocs measures what one reference call allocates, so the
// slots inside a metered block can be taken out of its account.
func referenceAllocs() (mallocs, bytes float64) {
	const calls = 64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		timeReference()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / calls, float64(m1.TotalAlloc-m0.TotalAlloc) / calls
}
