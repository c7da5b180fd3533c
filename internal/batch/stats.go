package batch

import (
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/mmlp"
	"repro/internal/obs"
)

// collector accumulates a pool's activity, wait-free: every counter is an
// atomic and every histogram bin is individually atomic, so recording a
// job never takes a lock. Latency quantiles come from the histograms, on
// a shard exactly as on the fleet.
type collector struct {
	workers int

	solve  obs.Histogram
	stages [obs.NumStages]obs.Histogram

	jobs, errors atomic.Int64
	// shed is bumped by TrySubmit's refusal path, deadlineExpired by
	// queueDeath, and the delta counters by recordDelta.
	shed, deadlineExpired               atomic.Int64
	deltaHits, deltaMisses, dirtyAgents atomic.Int64

	started      time.Time
	startMallocs uint64
}

// start stamps the baseline for uptime and allocation accounting.
func (c *collector) start(workers int) {
	c.workers = workers
	c.started = time.Now()
	c.startMallocs = readMallocs()
}

// readMallocs counts heap allocations via runtime/metrics, which reads a
// ready-made counter without the stop-the-world pause of ReadMemStats —
// snapshot runs on every /statsz scrape, so it must not stall the workers.
func readMallocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// recordDelta classifies one finished delta job. Failed deltas (unknown
// base, invalid edits, cancellation) are neither hits nor misses — they
// already count toward Jobs/Errors through record.
func (c *collector) recordDelta(cached bool, out *engine.DeltaOutcome, err error) {
	if err != nil {
		return
	}
	if cached {
		c.deltaHits.Add(1)
		return
	}
	c.deltaMisses.Add(1)
	if out != nil {
		c.dirtyAgents.Add(int64(out.DirtyAgents))
	}
}

// record notes one completed job. Only successful solves are observed
// into the solve histogram; failures and cancellations count toward
// Jobs/Errors alone. tr, when non-nil, feeds the per-stage histograms
// (zero stages are skipped: a cache hit has no kernel span, and recording
// it as 0 would drag the stage quantiles down). Jobs is bumped before
// Errors and snapshot reads them in the opposite order, so a snapshot
// never shows more errors than jobs.
func (c *collector) record(latency time.Duration, failed bool, tr *obs.Trace) {
	c.jobs.Add(1)
	if failed {
		c.errors.Add(1)
		return
	}
	if latency <= 0 {
		return
	}
	c.solve.Observe(latency)
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if ns := tr.NS(s); ns > 0 {
			c.stages[s].ObserveNS(ns)
		}
	}
}

// snapshot renders the current totals as the one stats block.
func (c *collector) snapshot() *mmlp.StatsRaw {
	st := &mmlp.StatsRaw{
		Errors:          c.errors.Load(), // before Jobs: see record
		Jobs:            c.jobs.Load(),
		Workers:         int64(c.workers),
		UptimeNS:        int64(time.Since(c.started)),
		Shed:            c.shed.Load(),
		DeadlineExpired: c.deadlineExpired.Load(),
		DeltaHits:       c.deltaHits.Load(),
		DeltaMisses:     c.deltaMisses.Load(),
		DirtyAgents:     c.dirtyAgents.Load(),
		Solve:           c.solve.Snapshot(),
	}
	if st.Jobs > 0 {
		st.AllocsPerJob = float64(readMallocs()-c.startMallocs) / float64(st.Jobs)
	}
	st.MaxNS = st.Solve.MaxNS
	st.DeriveQuantiles()
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if snap := c.stages[s].Snapshot(); snap.Count > 0 {
			if st.Stages == nil {
				st.Stages = make(map[string]*obs.HistRaw, int(obs.NumStages))
			}
			st.Stages[s.String()] = snap
		}
	}
	return st
}
