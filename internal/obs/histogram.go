package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram buckets are log-spaced with subBits sub-buckets per
// octave: values 0..3ns land in their own buckets, and every later octave
// [2^p, 2^(p+1)) is split into 4 equal sub-ranges. That caps the relative
// quantile error at 25% while keeping the bin array small enough to embed
// (252 * 8 bytes) and — crucially — making the bucket layout a fixed,
// versionless contract: two processes always agree on bucket i, so
// histograms merge by adding bins. The top octave (p=63) covers all
// representable int64 durations (~292 years), so no overflow bucket is
// needed.
const (
	subBits = 2
	sub     = 1 << subBits // sub-buckets per octave

	// NumBuckets = 4 exact buckets for 0..3ns + 62 octaves * 4.
	NumBuckets = sub + (63-subBits)*sub
)

// bucketOf maps a nanosecond value to its bucket index. Negative values
// clamp to bucket 0.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	u := uint64(ns)
	if u < sub {
		return int(u)
	}
	p := bits.Len64(u) - 1 // top set bit; p >= subBits here
	return sub + (p-subBits)*sub + int((u>>(uint(p)-subBits))&(sub-1))
}

// UpperBoundNS returns the largest nanosecond value that lands in bucket
// i (inclusive). Quantile estimates report this bound, so they err high
// by at most one sub-bucket width (≤25% relative).
func UpperBoundNS(i int) int64 {
	if i < 0 {
		return 0
	}
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	if i < sub {
		return int64(i)
	}
	g := i - sub
	p := uint(g/sub) + subBits
	m := uint64(g%sub) + 1
	ub := uint64(1)<<p + m<<(p-subBits) - 1
	if ub > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(ub)
}

// Histogram is a fixed-layout latency histogram with lock-free atomic
// bins. Observe is wait-free and allocation-free; Snapshot produces the
// sparse wire form. The zero value is ready to use.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64 // nanoseconds
	max   atomic.Int64 // nanoseconds
	bins  [NumBuckets]atomic.Int64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveNS(int64(d))
}

// ObserveNS records one duration given in nanoseconds.
func (h *Histogram) ObserveNS(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.bins[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			return
		}
	}
}

// Snapshot returns the sparse wire form of the histogram's current state.
// Bins are read without a global lock, so under concurrent Observe the
// snapshot is a consistent-enough view (each bin individually atomic);
// Count is recomputed as the bin sum so count and bins always agree.
func (h *Histogram) Snapshot() *HistRaw {
	raw := &HistRaw{
		SumNS: h.sum.Load(),
		MaxNS: h.max.Load(),
	}
	for i := range h.bins {
		if n := h.bins[i].Load(); n > 0 {
			raw.Bucket = append(raw.Bucket, i)
			raw.N = append(raw.N, n)
			raw.Count += n
		}
	}
	return raw
}

// HistRaw is the sparse JSON/merge form of a Histogram: parallel arrays
// of bucket indices (ascending) and their counts. Shards ship HistRaw in
// /statsz?raw=1; the router merges them bucket-wise, which is what makes
// fleet quantiles true quantiles rather than averages of per-shard ones.
type HistRaw struct {
	Count  int64   `json:"count"`
	SumNS  int64   `json:"sum_ns"`
	MaxNS  int64   `json:"max_ns"`
	Bucket []int   `json:"bucket,omitempty"`
	N      []int64 `json:"n,omitempty"`
}

// dense expands the sparse form, defensively skipping malformed entries
// (out-of-range indices, mismatched array lengths, non-positive counts):
// HistRaw arrives as JSON from other processes and must not panic the
// aggregator.
func (r *HistRaw) dense() [NumBuckets]int64 {
	var d [NumBuckets]int64
	if r == nil {
		return d
	}
	for i, b := range r.Bucket {
		if i >= len(r.N) {
			break
		}
		if b < 0 || b >= NumBuckets || r.N[i] <= 0 {
			continue
		}
		d[b] += r.N[i]
	}
	return d
}

// Merge adds other into r bucket-wise. Sum and count add, max takes the
// larger; r never aliases other's slices afterwards.
func (r *HistRaw) Merge(other *HistRaw) {
	if other == nil {
		return
	}
	d := r.dense()
	od := other.dense()
	var total int64
	for i := range d {
		d[i] += od[i]
		total += d[i]
	}
	r.Bucket = r.Bucket[:0]
	r.N = r.N[:0]
	for i, n := range d {
		if n > 0 {
			r.Bucket = append(r.Bucket, i)
			r.N = append(r.N, n)
		}
	}
	r.Count = total
	r.SumNS += other.SumNS
	if other.MaxNS > r.MaxNS {
		r.MaxNS = other.MaxNS
	}
}

// QuantileNS estimates the q-quantile (0 ≤ q ≤ 1) by nearest rank over
// the bucket counts, reporting the holding bucket's upper bound. Returns 0
// on an empty histogram.
func (r *HistRaw) QuantileNS(q float64) int64 {
	if r == nil {
		return 0
	}
	d := r.dense()
	return quantileNS(&d, q)
}

// QuantileNS is HistRaw.QuantileNS read straight off the live bins, with
// no snapshot: wait-free and allocation-free.
func (h *Histogram) QuantileNS(q float64) int64 {
	var d [NumBuckets]int64
	for i := range h.bins {
		d[i] = h.bins[i].Load()
	}
	return quantileNS(&d, q)
}

func quantileNS(d *[NumBuckets]int64, q float64) int64 {
	var total int64
	for _, n := range d {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(q * float64(total-1))
	var cum int64
	for i, n := range d {
		cum += n
		if cum > rank {
			return UpperBoundNS(i)
		}
	}
	return UpperBoundNS(NumBuckets - 1)
}
