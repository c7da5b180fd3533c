// Command mmlpserve serves max-min LP solving over HTTP, backed by the
// internal/batch worker pool (fixed workers, per-worker scratch reuse,
// bounded queue with backpressure).
//
// Usage:
//
//	mmlpserve [-addr :8080] [-workers N] [-queue N] [-max-body 8388608] [-job-timeout 0]
//	          [-cache-bytes 67108864] [-slow-log 250ms] [-debug-addr :6060]
//	          [-shed] [-fault-spec RULES]
//
// The solver is deterministic, so results are cached under the canonical
// (instance, options) hash: repeat solves of a slowly-changing topology
// are answered from memory, bit-identically to a fresh solve, and tagged
// "cached": true. -cache-bytes 0 disables caching.
//
// Endpoints:
//
//	POST /v1/solve  — solve one instance; body {"instance": {...}, "engine": "local|dist|dist-compact", "r": 3}
//	POST /v1/batch  — solve many; body {"jobs": [<solve request>, ...]};
//	                  the response streams one NDJSON line per job as it
//	                  completes, each tagged with its request index
//	POST /v1/delta  — incremental re-solve: body {"base": "<canonical
//	                  key>", "edits": [...]} prices an edit set against a
//	                  cached base solve, re-running the kernel only for
//	                  the agents within the locality radius of an edited
//	                  row and splicing the rest — bit-identical to a cold
//	                  solve of the edited instance. 404/base_unknown when
//	                  this process does not hold the base
//	GET  /v1/capabilities — the serving surface (endpoints, engines,
//	                  content types, wire limits) for feature detection;
//	                  "delta" is false when -cache-bytes 0 leaves no cache
//	                  to hold a base
//	GET  /healthz   — liveness plus the build's VCS revision/dirty flag
//	GET  /statsz    — the typed stats block (mmlp.StatsRaw: exact
//	                  counters, nanosecond latencies, mergeable latency
//	                  histograms, and a "cache" block when caching is
//	                  enabled) that mmlprouter merges into its fleet view;
//	                  ?raw=1 is accepted and serves the same block
//	GET  /metrics   — the same block in the Prometheus text format
//
// Observability: ?trace=1 on /v1/solve or /v1/delta adds a per-stage
// "trace" block to the response; an X-Mmlp-Trace request header (normally
// set by the router) is echoed on every /v1/ response, errors included,
// and never minted here. -slow-log DURATION logs the full
// stage breakdown via log/slog for any solve at or above the threshold
// (0 logs every solve; negative, the default, disables). -debug-addr
// serves net/http/pprof on a separate listener.
//
// Overload behavior: an X-Mmlp-Deadline-Ms request header (normally
// minted by the router from the client deadline) becomes a context
// deadline, so work that can no longer make it back in time is abandoned
// — a job whose deadline passes while still queued is answered 504
// without touching the solver. With -shed, /v1/solve stops queueing
// behind a full queue and answers 429 with a Retry-After derived from
// the live queue-wait median instead. -fault-spec RULES enables the
// deterministic chaos layer (internal/fault) for testing: latency,
// error, blackhole, slow-body and truncation faults by path and rate;
// off by default and zero-cost when off.
//
// SIGINT/SIGTERM shut down gracefully: in-flight requests finish, then the
// pool drains and the process exits.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/batch"
	"repro/internal/fault"
	"repro/internal/httperr"
)

// serveConfig is the parsed and validated flag set.
type serveConfig struct {
	addr          string
	workers       int
	queue         int
	maxBody       int64
	jobTimeout    time.Duration
	cacheBytes    int64
	shutdownGrace time.Duration
	slowLog       time.Duration
	debugAddr     string
	shed          bool
	fault         *fault.Injector // parsed -fault-spec; nil when disabled
}

// parseFlags parses and vets the command line; main exits 2 on an error,
// matching the mmlpbench -scale / mmlpdist -protocol convention. -workers
// and -queue size real resources, so an explicitly passed value must be
// positive: omitting the flag selects the auto default (GOMAXPROCS
// workers, 2×workers queue slots), while an explicit 0 or negative is
// rejected rather than silently reinterpreted. -cache-bytes 0 stays
// meaningful (it disables caching); only negative budgets are rejected.
func parseFlags(args []string) (*serveConfig, error) {
	fs := flag.NewFlagSet("mmlpserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "solver pool size (omit for GOMAXPROCS)")
	queue := fs.Int("queue", 0, "pending-job queue bound (omit for 2×workers)")
	maxBody := fs.Int64("max-body", 8<<20, "largest accepted request body in bytes")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job solve deadline (0 = none)")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "result-cache byte budget (0 disables caching)")
	shutdownGrace := fs.Duration("shutdown-grace", 10*time.Second, "graceful shutdown window")
	slowLog := fs.Duration("slow-log", -1, "log the per-stage breakdown of solves at or above this latency (0 logs every solve; negative disables)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address (empty disables)")
	shed := fs.Bool("shed", false, "shed /v1/solve on a full queue (429 + Retry-After) instead of applying backpressure")
	faultSpec := fs.String("fault-spec", "", "fault-injection rules for chaos testing (e.g. 'path=/v1/ latency=800ms'; empty disables)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	injector, err := fault.Parse(*faultSpec)
	if err != nil {
		return nil, err
	}

	// Distinguish "flag omitted" (auto default) from "explicit value": only
	// the latter must be positive.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	for name, v := range map[string]int{"workers": *workers, "queue": *queue} {
		if explicit[name] && v <= 0 {
			return nil, fmt.Errorf("-%s must be positive, got %d (omit the flag for the default)", name, v)
		}
		if v < 0 { // unreachable via flags but keeps the invariant obvious
			return nil, fmt.Errorf("-%s must be positive, got %d", name, v)
		}
	}
	if *maxBody <= 0 {
		return nil, fmt.Errorf("-max-body must be positive, got %d", *maxBody)
	}
	if *cacheBytes < 0 {
		return nil, fmt.Errorf("-cache-bytes must be ≥ 0 (0 disables caching), got %d", *cacheBytes)
	}
	if *jobTimeout < 0 {
		return nil, fmt.Errorf("-job-timeout must be ≥ 0, got %v", *jobTimeout)
	}
	return &serveConfig{
		addr: *addr, workers: *workers, queue: *queue, maxBody: *maxBody,
		jobTimeout: *jobTimeout, cacheBytes: *cacheBytes,
		shutdownGrace: *shutdownGrace, slowLog: *slowLog, debugAddr: *debugAddr,
		shed: *shed, fault: injector,
	}, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "mmlpserve:", err)
		os.Exit(2)
	}

	pool := batch.NewPool(batch.Options{
		Workers: cfg.workers, Queue: cfg.queue, JobTimeout: cfg.jobTimeout,
		CacheBytes: cfg.cacheBytes,
	})
	h := newServer(pool, cfg.maxBody)
	if cfg.slowLog >= 0 {
		h.enableSlowLog(cfg.slowLog)
	}
	if cfg.shed {
		h.enableShed()
	}
	h.setFault(cfg.fault)
	// The fault wrap is the identity when -fault-spec is empty, so the
	// production handler chain is untouched by the chaos layer.
	httperr.Serve("mmlpserve", cfg.addr, cfg.debugAddr, cfg.fault.Wrap(h), cfg.shutdownGrace,
		fmt.Sprintf(" (workers=%d)", pool.Workers()))
	pool.Close()
}
