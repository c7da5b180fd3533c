package main

import (
	"bytes"
	"log"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
)

// serveDebug exposes net/http/pprof on its own listener — deliberately a
// separate address from the serving port, so profiling endpoints are never
// reachable through whatever exposes the service itself.
func serveDebug(name, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("%s: pprof on %s", name, addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("%s: debug listener: %v", name, err)
	}
}

// handleMetrics renders the stats block /statsz serves in the Prometheus
// text exposition format, from the one declaration of each metric, so the
// two views can never disagree.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b bytes.Buffer
	s.stats().WriteMetrics(&b)
	obs.WriteBuildInfo(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes())
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
