package batch

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestQuantileEmptyWindow: quantiles over zero samples are 0, never a
// panic — the state every pool is in while all of its jobs failed — and a
// single sample is its own p50 and p99 (7ns sits in an exact bucket).
func TestQuantileEmptyWindow(t *testing.T) {
	var c collector
	c.start(1)
	if st := c.snapshot(); st.P50NS != 0 || st.P99NS != 0 {
		t.Fatalf("empty p50/p99 = %d/%d, want 0/0", st.P50NS, st.P99NS)
	}
	c.record(7, false, nil)
	if st := c.snapshot(); st.P50NS != 7 || st.P99NS != 7 || st.MaxNS != 7 {
		t.Fatalf("one-sample p50/p99/max = %d/%d/%d, want 7/7/7", st.P50NS, st.P99NS, st.MaxNS)
	}
}

// TestSnapshotAllFailures: a collector that has only seen failures and
// zero-latency cancellations snapshots cleanly with zero quantiles.
func TestSnapshotAllFailures(t *testing.T) {
	var c collector
	c.start(2)
	for i := 0; i < 5; i++ {
		c.record(0, true, nil) // cancelled before start
	}
	c.record(0, false, nil) // successful but sub-resolution latency: no sample
	st := c.snapshot()
	if st.Jobs != 6 || st.Errors != 5 {
		t.Fatalf("jobs/errors = %d/%d, want 6/5", st.Jobs, st.Errors)
	}
	if st.P50NS != 0 || st.P99NS != 0 || st.MaxNS != 0 {
		t.Fatalf("quantiles on an empty window = %v/%v/%v, want zeros", st.P50NS, st.P99NS, st.MaxNS)
	}
	if st.Solve == nil || st.Solve.Count != 0 {
		t.Fatalf("failure-only histogram = %+v, want present and empty", st.Solve)
	}
}

// TestCollectorHistograms: successful solves land in the all-time solve
// histogram, stage spans land in their per-stage histograms, and zero
// stages are skipped rather than recorded as 0.
func TestCollectorHistograms(t *testing.T) {
	var c collector
	c.start(1)
	var tr obs.Trace
	tr.Set(obs.StageKernel, int64(2*time.Millisecond))
	tr.Set(obs.StageQueueWait, int64(time.Millisecond))
	c.record(5*time.Millisecond, false, &tr)
	c.record(7*time.Millisecond, false, nil) // no trace: solve hist only
	c.record(0, true, &tr)                   // failure: nothing observed
	st := c.snapshot()
	if st.Solve.Count != 2 {
		t.Fatalf("solve count = %d, want 2", st.Solve.Count)
	}
	if st.MaxNS != int64(7*time.Millisecond) {
		t.Fatalf("max = %v, want 7ms", time.Duration(st.MaxNS))
	}
	if h := st.Stages[obs.StageKernel.String()]; h == nil || h.Count != 1 {
		t.Fatalf("kernel stage hist = %+v, want count 1", h)
	}
	if h := st.Stages[obs.StageQueueWait.String()]; h == nil || h.Count != 1 {
		t.Fatalf("queue_wait stage hist = %+v, want count 1", h)
	}
	if _, ok := st.Stages[obs.StageEncode.String()]; ok {
		t.Fatal("unobserved stage should be absent")
	}
}

// TestQueueWaitP50: the Retry-After hint reads the live queue-wait
// histogram — the median of what was observed — without allocating, so
// the shed path it serves stays allocation-free.
func TestQueueWaitP50(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	if got := p.QueueWaitP50(); got != 0 {
		t.Fatalf("fresh pool queue-wait p50 = %v, want 0", got)
	}
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Second, 3 * time.Second} {
		p.col.stages[obs.StageQueueWait].Observe(d)
	}
	if got := p.QueueWaitP50(); got < 2*time.Second || got > 5*time.Second/2 {
		t.Fatalf("queue-wait p50 = %v, want within one bucket of 2s", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.QueueWaitP50() }); allocs != 0 {
		t.Fatalf("QueueWaitP50 allocates %v times per call, want 0", allocs)
	}
}
