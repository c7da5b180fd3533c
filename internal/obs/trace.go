// Package obs is the fleet's zero-dependency observability layer:
// per-request stage traces, mergeable log-bucketed latency histograms,
// and Prometheus text-format rendering. Everything on the hot path is
// allocation-free: a Trace is a fixed array carried inside
// engine.Scratch, and Histogram.Observe is a handful of atomic adds.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// Stage identifies one timed segment of the solve pipeline. The stages
// partition a request's life: front-door decode (canonicalize covers both
// JSON canonicalization and canon wire decode), key hashing, result-cache
// lookup (including coalesced-flight waits), queue wait inside the worker
// pool, the three engine phases (transform, kernel, back-map), and
// response encoding.
type Stage uint8

const (
	StageCanonicalize Stage = iota
	StageHash
	StageCacheLookup
	StageQueueWait
	StageTransform
	StageKernel
	StageBackMap
	// The three delta stages partition an incremental re-solve: planning
	// the dirty agent set (edit application and validation, the BFS over
	// both topologies), re-running the kernel for exactly the dirty agents,
	// and splicing the untouched coordinates from the cached base solution
	// (the smooth/approximate/back-map tail over the merged kernel output).
	StageDeltaPlan
	StageDeltaKernel
	StageDeltaSplice
	StageEncode

	// NumStages bounds the Trace array; it is NOT a stage.
	NumStages
)

var stageNames = [NumStages]string{
	"canonicalize",
	"hash",
	"cache_lookup",
	"queue_wait",
	"transform",
	"kernel",
	"back_map",
	"delta_plan",
	"delta_kernel",
	"delta_splice",
	"encode",
}

// String returns the snake_case stage name used in trace blocks, slow-log
// attributes, and the /metrics stage label.
func (s Stage) String() string {
	if s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Trace is a fixed-size per-request stage-timing record (nanoseconds per
// stage). It is embedded by value in engine.Scratch and batch.Result so
// recording a span never allocates; copying a Trace copies the record.
// All pointer methods tolerate a nil receiver so call sites that may run
// without a scratch can record unconditionally.
type Trace struct {
	ns [NumStages]int64
}

// Reset zeroes every stage. Engine entry points call it once per request.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.ns = [NumStages]int64{}
}

// Add accumulates d into stage s (multiple spans of one stage sum).
func (t *Trace) Add(s Stage, d time.Duration) {
	if t == nil || s >= NumStages || d <= 0 {
		return
	}
	t.ns[s] += int64(d)
}

// Set overwrites stage s with ns nanoseconds.
func (t *Trace) Set(s Stage, ns int64) {
	if t == nil || s >= NumStages {
		return
	}
	t.ns[s] = ns
}

// NS returns the recorded nanoseconds for stage s.
func (t *Trace) NS(s Stage) int64 {
	if t == nil || s >= NumStages {
		return 0
	}
	return t.ns[s]
}

// MSMap renders the non-zero stages as name → milliseconds, the shape of
// the opt-in "trace" block in a ?trace=1 solve response. It allocates and
// belongs off the default path.
func (t Trace) MSMap() map[string]float64 {
	m := make(map[string]float64, NumStages)
	for s := Stage(0); s < NumStages; s++ {
		if t.ns[s] > 0 {
			m[s.String()] = float64(t.ns[s]) / 1e6
		}
	}
	return m
}

// TraceHeader is the request-ID header: the router generates an ID (or
// propagates a client-supplied one), forwards it to the owning shard, and
// echoes it on the response so one ID follows a request across the fleet.
const TraceHeader = "X-Mmlp-Trace"

// DeadlineHeader carries a request's remaining time budget, in integer
// milliseconds, across process hops: the router mints it from the client
// deadline (or its -default-deadline) and the shard turns it back into a
// context deadline, so a job that can no longer make it is abandoned at
// the earliest hop instead of computing an answer nobody is waiting for.
// The constant is already in canonical MIME form, so reading it from a
// request that doesn't carry it costs no allocation.
const DeadlineHeader = "X-Mmlp-Deadline-Ms"

// DeadlineContext derives a request's working context from its
// DeadlineHeader: the header's millisecond budget becomes a context
// deadline. Absent the header, def bounds the request when positive. cancel
// is nil exactly when nothing bounds it — the common case, which returns
// r's context untouched and allocates nothing. A malformed header is an
// error: a client bug worth a 400, not silent unbounded work.
func DeadlineContext(r *http.Request, def time.Duration) (ctx context.Context, cancel context.CancelFunc, err error) {
	d := def
	if h := r.Header.Get(DeadlineHeader); h != "" {
		ms, perr := strconv.ParseInt(h, 10, 64)
		if perr != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
			return nil, nil, fmt.Errorf("bad %s header %q: want a positive integer millisecond count", DeadlineHeader, h)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d <= 0 {
		return r.Context(), nil, nil
	}
	ctx, cancel = context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

type traceIDKey struct{}

// WithTraceID stashes a request ID in the context for the forward path.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceID returns the request ID stashed by WithTraceID, or "".
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// NewTraceID returns a fresh 16-hex-char request ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a fixed ID
		// keeps the serving path alive and is still detectable in logs.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
