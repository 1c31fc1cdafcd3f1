package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"expertfind"
)

// bestOf is the estimator every timing metric is built on: the same
// deterministic request stream is replayed several times and request i
// keeps the minimum latency it showed in any pass. Scheduler noise on
// a shared VM only ever adds time, so the per-request minimum converges
// on the cost of the work itself, where a single pass's mean drifts by
// tens of percent.
type bestOf struct {
	best   []time.Duration
	passes int
}

// fold merges one pass into the running minimum. Every pass must time
// the same requests in the same order.
func (b *bestOf) fold(lat []time.Duration) error {
	if b.passes == 0 {
		b.best = append([]time.Duration(nil), lat...)
		b.passes = 1
		return nil
	}
	if len(lat) != len(b.best) {
		return fmt.Errorf("pass timed %d requests, earlier passes %d", len(lat), len(b.best))
	}
	for i, d := range lat {
		if d < b.best[i] {
			b.best[i] = d
		}
	}
	b.passes++
	return nil
}

// sum is the time one waiting caller spends on the whole stream.
func (b *bestOf) sum() time.Duration {
	var s time.Duration
	for _, d := range b.best {
		s += d
	}
	return s
}

func sorted(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// minBeyond is how many samples must lie beyond a percentile before
// it is reported: with fewer, the figure is one outlier, not a tail.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of an ascending sample
// and refuses when fewer than minBeyond samples lie on its far side:
// above it from the median up, below it for a lower quantile.
func quantile(asc []time.Duration, q float64) (time.Duration, error) {
	n := len(asc)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %v of %d samples is undefined", q, n)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	beyond := n - 1 - idx
	if q < 0.5 {
		beyond = idx
	}
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	return asc[idx], nil
}

// median of a small set of per-pass figures (no tail rule: these are
// whole-pass aggregates, not latencies). Even counts take the mean of
// the middle pair.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// hashFailed marks a request that returned no ranking; rankingHash
// never produces it in practice, so it cannot match an expectation.
const hashFailed = 0

// rankingHash fingerprints one ranking: names, score bits and support
// counts, in order. Swapping two experts changes it, as does a
// one-ulp score drift — rankings are the repository's fixed point.
func rankingHash(experts []expertfind.Expert) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range experts {
		h.Write([]byte(e.Name))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.Score))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(e.SupportingResources))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// streamHash chains per-request hashes (and the end-of-pass state
// string) into the one value that is pinned per workload.
func streamHash(hashes []uint64, state string) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range hashes {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	h.Write([]byte(state))
	return fmt.Sprintf("%016x", h.Sum64())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
