package mmlp

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// shardRaw fabricates one shard's stats block: jobs solves all at the
// given latency, so its histogram and its own quantiles agree exactly.
func shardRaw(jobs int, lat time.Duration) *StatsRaw {
	var h obs.Histogram
	for i := 0; i < jobs; i++ {
		h.Observe(lat)
	}
	return &StatsRaw{
		Jobs:  int64(jobs),
		P50NS: int64(lat),
		P99NS: int64(lat),
		MaxNS: int64(lat),
		Solve: h.Snapshot(),
	}
}

// Regression for the fleet-quantile bug: two shards reporting p99s of 5ms
// and 50ms must not yield a fleet "p99" that is neither (nor, as the old
// max-of-quantiles did, 50ms regardless of how little traffic the slow
// shard saw). With 900 jobs at 5ms and 100 at 50ms the exact fleet p99 is
// a 50ms sample and the exact p50 a 5ms one; the merged histogram must
// land each within one bucket of its exact value.
func TestFleetQuantilesFromMergedHistograms(t *testing.T) {
	fast := shardRaw(900, 5*time.Millisecond)
	slow := shardRaw(100, 50*time.Millisecond)

	var fleet StatsRaw
	fleet.Add(fast)
	fleet.Add(slow)
	fleet.DeriveQuantiles()

	if fleet.Solve == nil || fleet.Solve.Count != 1000 {
		t.Fatalf("merged solve histogram = %+v, want count 1000", fleet.Solve)
	}
	// Histogram quantiles report the holding bucket's upper bound: the
	// estimate lives within one bucket (≤25% relative) of the exact value.
	if fleet.P50NS < int64(5*time.Millisecond) || fleet.P50NS > int64(7*time.Millisecond) {
		t.Fatalf("fleet p50 = %v, want within one bucket of 5ms", time.Duration(fleet.P50NS))
	}
	if fleet.P99NS < int64(50*time.Millisecond) || fleet.P99NS > int64(63*time.Millisecond) {
		t.Fatalf("fleet p99 = %v, want within one bucket of 50ms", time.Duration(fleet.P99NS))
	}
	if fleet.MaxNS != int64(50*time.Millisecond) {
		t.Fatalf("fleet max = %v", time.Duration(fleet.MaxNS))
	}

	// The inverse weighting — 100 fast jobs, 900 slow — must drag the
	// fleet p50 up to 50ms. The old code reported identical "fleet"
	// numbers for both traffic mixes.
	var fleet2 StatsRaw
	fleet2.Add(shardRaw(100, 5*time.Millisecond))
	fleet2.Add(shardRaw(900, 50*time.Millisecond))
	fleet2.DeriveQuantiles()
	if fleet2.P50NS < int64(50*time.Millisecond) {
		t.Fatalf("inverted fleet p50 = %v, want ≥ 50ms", time.Duration(fleet2.P50NS))
	}

	// Merging must not alias a shard's histogram: the per-shard blocks are
	// republished verbatim next to the fleet aggregate.
	before := fast.Solve.Count
	fleet.Solve.Merge(slow.Solve)
	if fast.Solve.Count != before {
		t.Fatal("fleet merge aliased a shard's histogram")
	}
}

// Stage histograms merge per stage name, and per-process quantiles stay
// per-process (untouched by Add; DeriveQuantiles recomputes them).
func TestStatsRawAddStages(t *testing.T) {
	a := shardRaw(2, time.Millisecond)
	a.Stages = map[string]*obs.HistRaw{"kernel": shardRaw(2, time.Millisecond).Solve}
	b := shardRaw(3, 2*time.Millisecond)
	b.Stages = map[string]*obs.HistRaw{
		"kernel":     shardRaw(3, 2*time.Millisecond).Solve,
		"queue_wait": shardRaw(1, time.Microsecond).Solve,
	}
	var fleet StatsRaw
	fleet.Add(a)
	fleet.Add(b)
	if got := fleet.Stages["kernel"].Count; got != 5 {
		t.Fatalf("merged kernel count = %d, want 5", got)
	}
	if got := fleet.Stages["queue_wait"].Count; got != 1 {
		t.Fatalf("merged queue_wait count = %d, want 1", got)
	}
	if fleet.P50NS != 0 || fleet.P99NS != 0 {
		t.Fatalf("Add must not fabricate fleet quantiles: p50=%d p99=%d", fleet.P50NS, fleet.P99NS)
	}
}

// declared maps each struct field a table locates to its metric name, and
// fails on a field declared twice.
func declared[T any](t *testing.T, table []obs.Metric[T]) map[string]string {
	t.Helper()
	var v T
	base := reflect.ValueOf(&v).Elem()
	byAddr := map[uintptr]string{}
	for i := 0; i < base.NumField(); i++ {
		byAddr[base.Field(i).Addr().Pointer()] = base.Type().Field(i).Name
	}
	out := map[string]string{}
	for _, m := range table {
		var p uintptr
		switch {
		case m.Int != nil:
			p = reflect.ValueOf(m.Int(&v)).Pointer()
		case m.Hist != nil:
			p = reflect.ValueOf(m.Hist(&v)).Pointer()
		default:
			p = reflect.ValueOf(m.Hists(&v)).Pointer()
		}
		field, ok := byAddr[p]
		if !ok {
			t.Fatalf("%s locates no field of %T", m.Name, v)
		}
		if prev, dup := out[field]; dup {
			t.Fatalf("%T.%s declared twice: %s and %s", v, field, prev, m.Name)
		}
		out[field] = m.Name
	}
	return out
}

// TestEveryMetricDeclaredOnce: every integer or histogram field of the
// stats blocks has exactly one declaration — so Add merges it and /metrics
// renders it — except the quantiles derived from the Solve histogram, and
// no two declarations share a Prometheus name.
func TestEveryMetricDeclaredOnce(t *testing.T) {
	derived := map[string]bool{"P50NS": true, "P99NS": true}
	names := map[string]bool{}
	check := func(typ reflect.Type, fields map[string]string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type {
			case reflect.TypeOf(int64(0)), reflect.TypeOf((*obs.HistRaw)(nil)), reflect.TypeOf(map[string]*obs.HistRaw(nil)):
			default:
				continue
			}
			if _, ok := fields[f.Name]; !ok && !derived[f.Name] {
				t.Errorf("%s.%s has no metric declaration", typ.Name(), f.Name)
			}
		}
		for _, name := range fields {
			if names[name] {
				t.Errorf("metric name %s declared twice", name)
			}
			names[name] = true
		}
	}
	check(reflect.TypeOf(StatsRaw{}), declared(t, statsMetrics))
	check(reflect.TypeOf(CacheStatsRaw{}), declared(t, cacheMetrics))
	check(reflect.TypeOf(RouterStats{}), declared(t, routerMetrics))
}

// TestAddMergesEveryDeclaredMetric fills every declared integer of two
// blocks with distinct values and checks Add combines each by its kind,
// cache block included.
func TestAddMergesEveryDeclaredMetric(t *testing.T) {
	a, b := &StatsRaw{Cache: &CacheStatsRaw{}}, &StatsRaw{Cache: &CacheStatsRaw{}}
	for i, m := range statsMetrics {
		if m.Int != nil {
			*m.Int(a), *m.Int(b) = int64(10+i), int64(100*i+1)
		}
	}
	for i, m := range cacheMetrics {
		*m.Int(a.Cache), *m.Int(b.Cache) = int64(10+i), int64(100*i+1)
	}
	var fleet StatsRaw
	fleet.Add(a)
	fleet.Add(b)
	check := func(name string, kind obs.Kind, got, x, y int64) {
		want := x + y
		if kind == obs.Peak {
			want = max(x, y)
		}
		if got != want {
			t.Errorf("%s merged to %d, want %d", name, got, want)
		}
	}
	for _, m := range statsMetrics {
		if m.Int != nil {
			check(m.Name, m.Kind, *m.Int(&fleet), *m.Int(a), *m.Int(b))
		}
	}
	for _, m := range cacheMetrics {
		check(m.Name, m.Kind, *m.Int(fleet.Cache), *m.Int(a.Cache), *m.Int(b.Cache))
	}
}

// TestDerivedQuantilesCappedByMax: a lone 1000ns solve sits in a bucket
// whose upper bound is 1023ns; the derived quantiles must not report a
// latency above the slowest solve.
func TestDerivedQuantilesCappedByMax(t *testing.T) {
	st := shardRaw(1, 1000)
	st.DeriveQuantiles()
	if st.P50NS != 1000 || st.P99NS != 1000 {
		t.Fatalf("p50/p99 = %d/%d, want 1000/1000", st.P50NS, st.P99NS)
	}
}
