package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"time"

	"repro/internal/batch"
	"repro/internal/canon"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/httperr"
	"repro/internal/mmlp"
	"repro/internal/obs"
	"repro/internal/shard"
)

// server routes HTTP traffic onto a batch.Pool.
type server struct {
	pool    *batch.Pool
	maxBody int64
	// handler is the endpoint mux behind the shared front: the error
	// envelope (which the mux's own 404/405 fallbacks speak too) and the
	// X-Mmlp-Trace echo on every /v1/ response.
	handler http.Handler

	// shed switches /v1/solve and /v1/delta admission to the non-blocking
	// TrySubmit path: a full queue answers 429 + Retry-After instead of
	// parking the connection. /v1/batch keeps the blocking path regardless
	// — its backpressure is streaming-shaped by design (results flow while
	// later jobs wait), so parking the submitter goroutine there is correct.
	shed bool

	// fault is the chaos-injection layer (-fault-spec); nil in production.
	// Held here only so its counter reaches /statsz and /metrics — the
	// injection itself wraps the whole handler in main.
	fault *fault.Injector

	// slowLogOn/slowLog gate the per-request breakdown log of synchronous jobs:
	// disabled by default, enabled by -slow-log (0 logs every solve).
	// logger is injectable for tests; defaults to slog's process logger.
	slowLogOn bool
	slowLog   time.Duration
	logger    *slog.Logger
}

// newServer wires the endpoints. maxBody bounds every request body; bodies
// beyond it are rejected with 413.
func newServer(pool *batch.Pool, maxBody int64) *server {
	s := &server{pool: pool, maxBody: maxBody, logger: slog.Default()}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleJob(httperr.DecodeSolve, writeSolve))
	mux.HandleFunc("POST /v1/delta", s.handleJob(httperr.DecodeDelta, writeDelta))
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/capabilities", s.handleCapabilities)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /statsz", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /admin/ring", s.handleRing)
	s.handler = httperr.Envelope(httperr.Trace(mux, false))
	return s
}

// enableSlowLog turns on the slow-solve breakdown log for solves at or
// above threshold (0 = every solve).
func (s *server) enableSlowLog(threshold time.Duration) {
	s.slowLogOn = true
	s.slowLog = threshold
}

// enableShed switches /v1/solve and /v1/delta to load-shedding admission.
func (s *server) enableShed() { s.shed = true }

// setFault attaches the chaos injector for stats surfacing.
func (s *server) setFault(in *fault.Injector) { s.fault = in }

// retryAfterSecs renders a Retry-After value from the live queue-wait
// median: the time by which half of recently admitted jobs had left the
// queue is the natural "come back when a slot has likely opened" hint.
// Whole seconds (the header's unit), minimum 1.
func retryAfterSecs(p50 time.Duration) string {
	secs := (p50 + time.Second - 1) / time.Second
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(int64(secs), 10)
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// errStatus maps a failed job onto its HTTP status and machine code —
// the one translation table shared by /v1/solve and /v1/delta.
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, engine.ErrBaseUnknown):
		// The named base is not cached here; the client falls back to a
		// full solve (and the router relays this without marking the shard
		// down — a cold cache is not a failure).
		return http.StatusNotFound, mmlp.ErrCodeBaseUnknown
	case errors.Is(err, mmlp.ErrInvalid):
		return http.StatusBadRequest, mmlp.ErrCodeInvalidArgument
	case errors.Is(err, batch.ErrQueueFull):
		// Only the -shed admission path refuses; the blocking one waits.
		return http.StatusTooManyRequests, mmlp.ErrCodeOverloaded
	case errors.Is(err, batch.ErrExpiredInQueue):
		// The deadline died in the queue: the kernel never ran. 504 tells
		// the client (and the router) this was pure queueing lateness, not
		// a failed solve.
		return http.StatusGatewayTimeout, mmlp.ErrCodeDeadlineExceeded
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, mmlp.ErrCodeUnavailable
	default:
		return http.StatusInternalServerError, mmlp.ErrCodeInternal
	}
}

// handleJob serves one synchronous job; /v1/solve and /v1/delta differ
// only in decode and write. A solve is JSON by default, or under
// Content-Type application/x-mmlp-canon the canon wire payload — keyed by
// its hash, decoded only on a cache miss. A delta re-solves a cached base
// with an edit set applied: the dirty agents — those within the kernel's
// locality radius of an edited row — are re-priced and everything else is
// spliced from the base's record, bit-identically to a cold solve of the
// edited instance; a base this shard does not hold answers
// 404/base_unknown, and the client (or the router's caller) falls back to
// a full solve, which also seeds the base for the next delta. Both kinds
// share the pool's workers, queue and admission ledger, so shedding and
// deadline propagation behave alike. The response is JSON either way,
// written by the schema encoder (httperr.WriteAnswer): a delta's reply
// copies every x entry its edit left unchanged from its base's encoded
// bytes, so it costs its ball, not the instance.
func (s *server) handleJob(
	decode func(http.ResponseWriter, *http.Request, int64) (batch.Job, []byte, int, error),
	write func(w http.ResponseWriter, res batch.Result, trace map[string]float64),
) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job, _, status, err := decode(w, r, s.maxBody)
		if err != nil {
			httperr.Write(w, status, httperr.CodeForStatus(status), err)
			return
		}
		ctx, cancel, ok := httperr.Deadline(w, r, 0)
		if !ok {
			return
		}
		defer cancel()
		var res batch.Result
		if s.shed {
			res = s.doShed(ctx, job)
		} else {
			res = s.pool.Do(ctx, job)
		}
		if res.Err != nil {
			status, code := errStatus(res.Err)
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", retryAfterSecs(s.pool.QueueWaitP50()))
			}
			httperr.Write(w, status, code, res.Err)
			return
		}
		// The RawQuery guard keeps query parsing (which allocates) off the
		// default path: plain solves stay within the warm-path alloc budget.
		var trace map[string]float64
		if r.URL.RawQuery != "" && r.URL.Query().Get("trace") == "1" {
			trace = res.Trace.MSMap()
		}
		encStart := time.Now()
		write(w, res, trace)
		enc := time.Since(encStart)
		s.pool.ObserveStage(obs.StageEncode, enc)
		if s.slowLogOn && res.Latency >= s.slowLog {
			s.logSlow(r.Header.Get(obs.TraceHeader), &res, enc)
		}
	}
}

// writeSolve and writeDelta are handleJob's response writers.
func writeSolve(w http.ResponseWriter, res batch.Result, trace map[string]float64) {
	resp := batch.ResponseFromResult(res)
	resp.Trace = trace
	httperr.WriteAnswer(w, &resp, nil)
}

func writeDelta(w http.ResponseWriter, res batch.Result, trace map[string]float64) {
	resp := batch.DeltaResponseFromResult(res)
	resp.Trace = trace
	httperr.WriteAnswer(w, &resp, res.Delta.BaseX)
}

// handleCapabilities advertises what this process serves — endpoints,
// engines, content types and wire limits — so clients and the router can
// feature-detect instead of probing with requests that may fail. A delta
// can only succeed where a result cache can hold its base.
func (s *server) handleCapabilities(w http.ResponseWriter, _ *http.Request) {
	caps := httperr.Capabilities("mmlpserve", s.maxBody, s.pool.Stats().Cache != nil)
	caps.Shed = s.shed
	httperr.WriteJSON(w, caps)
}

// doShed is Pool.Do over the non-blocking admission path: a full queue
// surfaces as ErrQueueFull instead of blocking the connection.
func (s *server) doShed(ctx context.Context, job batch.Job) batch.Result {
	ch := make(chan batch.Result, 1)
	if err := s.pool.TrySubmit(ctx, 0, job, func(r batch.Result) { ch <- r }); err != nil {
		return batch.Result{Err: err}
	}
	return <-ch
}

// handleBatch solves many instances and streams one result record per job
// as it completes. Records carry the job's request index; they arrive in
// completion order, not request order. The request is a JSON BatchRequest
// by default, or a canon batch frame under Content-Type
// application/x-mmlp-canon-batch; the response is NDJSON unless Accept
// names application/x-mmlp-canon-results, which selects the binary result
// frame. The two axes are independent: any request encoding can pick
// either response encoding.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	jobs, status, err := httperr.DecodeBatch(w, r, s.maxBody)
	if err != nil {
		httperr.Write(w, status, httperr.CodeForStatus(status), err)
		return
	}
	// The propagated deadline bounds every job in the batch: jobs still
	// queued when it passes are reported expired instead of solved late.
	ctx, cancel, ok := httperr.Deadline(w, r, 0)
	if !ok {
		return
	}
	defer cancel()
	emit := httperr.BatchWriter(w, r)

	// Submission runs on its own goroutine so the pool's backpressure never
	// stalls the response: completed results stream out while later jobs
	// are still waiting for a queue slot.
	results := make(chan batch.Result, len(jobs))
	type submitOutcome struct {
		submitted int
		err       error
	}
	submitDone := make(chan submitOutcome, 1)
	go func() {
		n := 0
		for i := range jobs {
			if err := s.pool.Submit(ctx, i, jobs[i], func(res batch.Result) { results <- res }); err != nil {
				submitDone <- submitOutcome{n, err} // client gone or pool closing
				return
			}
			n++
		}
		submitDone <- submitOutcome{n, nil}
	}()

	submitted := -1 // unknown until the submitter finishes
	var submitErr error
	for emitted := 0; submitted == -1 || emitted < submitted; {
		select {
		case res := <-results:
			emit(batch.ItemFromResult(res))
			emitted++
		case out := <-submitDone:
			submitted, submitErr = out.submitted, out.err
			submitDone = nil // disable this case; drain the rest of results
		}
	}
	// The contract is one record per job: jobs that never made it into the
	// pool still get an error item, so clients keying on index can tell a
	// dropped job from a lost response.
	for i := submitted; i < len(jobs); i++ {
		emit(batch.ItemFromResult(batch.Result{Index: i, Err: submitErr}))
	}
}

// handleRing applies a topology update after a ring cutover: the router
// sends the new member set and this shard's own address, and the shard
// prunes every cached result whose key it no longer holds under the new
// assignment — keys are kept iff Self is among their first Replication
// distinct ring successors. A shard absent from Members keeps nothing.
// Pruning is idempotent, so re-delivered updates are harmless.
func (s *server) handleRing(w http.ResponseWriter, r *http.Request) {
	var upd mmlp.ShardRingUpdate
	if _, status, err := httperr.ReadJSON(w, r, s.maxBody, &upd); err != nil {
		httperr.Write(w, status, httperr.CodeForStatus(status), err)
		return
	}
	if len(upd.Members) == 0 {
		httperr.Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, errors.New("ring update has no members"))
		return
	}
	ring, err := shard.New(upd.Members, upd.Replicas)
	if err != nil {
		httperr.Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, err)
		return
	}
	rep := upd.Replication
	if rep < 1 {
		rep = 1
	}
	n := s.pool.PruneCache(func(k canon.Key) bool {
		return slices.Contains(ring.Successors(k, rep), upd.Self)
	})
	httperr.WriteJSON(w, mmlp.PruneResponse{Pruned: n})
}

// handleHealth reports liveness plus the build's VCS identity, so fleet
// scrapes can tell what each shard is running.
func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	rev, dirty := obs.BuildInfo()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"workers\":%d,\"revision\":%q,\"dirty\":%v}\n", s.pool.Workers(), rev, dirty)
}

// stats snapshots the process's stats block: the pool's counters and
// histograms, its cache's, and the chaos layer's fault count.
func (s *server) stats() *mmlp.StatsRaw {
	st := s.pool.Stats()
	st.FaultsInjected = s.fault.Count()
	return st
}

// handleStats serves the stats block (mmlp.StatsRaw: exact counters,
// nanosecond latencies, sparse histograms) that mmlprouter scrapes and
// merges into its fleet view. The cache block is present exactly when the
// result cache is enabled. ?raw=1, the router's spelling, is accepted and
// changes nothing.
func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	httperr.WriteJSON(w, s.stats())
}
