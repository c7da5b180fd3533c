package main

import (
	"net/http"
	"time"

	"repro/internal/batch"
	"repro/internal/httperr"
	"repro/internal/obs"
)

// handleMetrics renders the stats block /statsz serves in the Prometheus
// text exposition format, from the one declaration of each metric, so the
// two views can never disagree.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	httperr.WriteMetrics(w, s.stats().WriteMetrics)
}

// logSlow emits the full per-stage breakdown of one solve via slog. The
// trace ID ties the line to the router's request ID, so "every router ID
// lands in exactly one shard's slow-log" is a checkable fleet invariant
// (fleetcheck asserts it with the threshold at 0).
func (s *server) logSlow(traceID string, res *batch.Result, enc time.Duration) {
	tr := res.Trace
	tr.Set(obs.StageEncode, int64(enc))
	attrs := make([]any, 0, 2*int(obs.NumStages)+6)
	attrs = append(attrs,
		"trace", traceID,
		"latency_ms", float64(res.Latency)/1e6,
		"cached", res.Cached,
	)
	for stg := obs.Stage(0); stg < obs.NumStages; stg++ {
		if ns := tr.NS(stg); ns > 0 {
			attrs = append(attrs, stg.String()+"_ms", float64(ns)/1e6)
		}
	}
	s.logger.Info("slow solve", attrs...)
}
