package main

import (
	"bytes"
	"log"
	"net/http"
	"net/http/pprof"

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

// handleMetrics renders the router block /statsz serves in the
// Prometheus text exposition format. Deliberately router-local: shard
// totals are each shard's /metrics to report (scraping them here would
// double-count in any setup where Prometheus also scrapes the shards
// directly), and the fleet aggregate stays on /statsz.
func (rt *router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b bytes.Buffer
	st := rt.stats()
	st.WriteMetrics(&b)
	obs.WriteBuildInfo(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes())
}
