package httperr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/canon"
	"repro/internal/engine"
	"repro/internal/mmlp"
	"repro/internal/obs"
)

// DecodeSolve decodes a /v1/solve body into its job and returns the raw
// body too, for callers that forward it. Under Content-Type
// application/x-mmlp-canon the body is the canon wire payload: it must
// pass the magic sniff and is otherwise kept as is — keyed by its hash,
// decoded only on a cache miss. Any other type is a JSON
// mmlp.SolveRequest read by mmlp.UnmarshalSolveRequest — json.Unmarshal's
// value and error, json.Marshal's spelling decoded without reflection —
// whose envelope is validated here. On failure status is the answer's: 413
// for an oversized body, 400 otherwise.
func DecodeSolve(w http.ResponseWriter, r *http.Request, limit int64) (job batch.Job, body []byte, status int, err error) {
	if MediaType(r) != mmlp.ContentTypeCanon {
		if body, status, err = ReadBody(w, r, limit); err != nil {
			return job, nil, status, err
		}
		var req mmlp.SolveRequest
		if err = mmlp.UnmarshalSolveRequest(body, &req); err != nil {
			return job, nil, http.StatusBadRequest, fmt.Errorf("malformed JSON: %w", err)
		}
		if job, err = batch.JobFromRequest(&req); err != nil {
			return job, nil, http.StatusBadRequest, err
		}
		return job, body, 0, nil
	}
	if body, status, err = ReadBody(w, r, limit); err != nil {
		return job, nil, status, err
	}
	if !canon.SniffSolve(body) {
		return job, nil, http.StatusBadRequest, fmt.Errorf("canon body does not start with %q", canon.SolveMagic)
	}
	return batch.JobFromCanon(body), body, 0, nil
}

// DecodeDelta decodes a JSON /v1/delta body into its job, returning the
// raw body like DecodeSolve.
func DecodeDelta(w http.ResponseWriter, r *http.Request, limit int64) (job batch.Job, body []byte, status int, err error) {
	var req mmlp.DeltaRequest
	if body, status, err = ReadJSON(w, r, limit, &req); err != nil {
		return job, nil, status, err
	}
	if job, err = batch.JobFromDelta(&req); err != nil {
		return job, nil, http.StatusBadRequest, err
	}
	return job, body, 0, nil
}

// DecodeBatch decodes a /v1/batch body into its jobs, all or nothing: an
// empty batch or any invalid job envelope rejects the whole request with
// 400, before a single job runs. Under Content-Type
// application/x-mmlp-canon-batch the body is a canon batch frame, split at
// frame boundaries only (each payload's magic is checked, none is
// decoded); any other type is a JSON mmlp.BatchRequest read by ReadJSON,
// so trailing data after it is malformed JSON.
func DecodeBatch(w http.ResponseWriter, r *http.Request, limit int64) (jobs []batch.Job, status int, err error) {
	if MediaType(r) == mmlp.ContentTypeCanonBatch {
		frame, status, err := ReadBody(w, r, limit)
		if err != nil {
			return nil, status, err
		}
		payloads, err := canon.SplitBatch(frame)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("malformed batch frame: %w", err)
		}
		jobs = make([]batch.Job, len(payloads))
		for i, p := range payloads {
			jobs[i] = batch.JobFromCanon(p)
		}
	} else {
		var req mmlp.BatchRequest
		if _, status, err := ReadJSON(w, r, limit, &req); err != nil {
			return nil, status, err
		}
		jobs = make([]batch.Job, len(req.Jobs))
		for i := range req.Jobs {
			if jobs[i], err = batch.JobFromRequest(&req.Jobs[i]); err != nil {
				return nil, http.StatusBadRequest, fmt.Errorf("job %d: %w", i, err)
			}
		}
	}
	if len(jobs) == 0 {
		return nil, http.StatusBadRequest, errors.New("batch has no jobs")
	}
	return jobs, 0, nil
}

// CanonJob turns a decoded JSON solve job into the canon job the router
// forwards. The instance is validated first, as the client spelled it: a
// shard names the client's row indices, the payload's rows are in
// canonical order. An invalid instance returns exactly Validate's error,
// the message a shard answers with (400 invalid_argument, or the job's
// batch line), and is never encoded.
func CanonJob(job batch.Job) (batch.Job, error) {
	if err := job.In.Validate(); err != nil {
		return batch.Job{}, err
	}
	return batch.JobFromCanon(engine.EncodeCanon(job.In, job.Opts)), nil
}

// RouteKey is the fleet routing key of a job the router forwards: a canon
// payload's hash, which is the cache key its owning shard files the result
// under and, by the encoding's injectivity, the canonical key of every
// JSON spelling of the problem (CanonJob builds the payload); or, for a
// delta, its base's key, since only the shard that holds the base record
// can price the edits.
func RouteKey(job batch.Job) canon.Key {
	if job.Delta != nil {
		return job.Delta.Base
	}
	return canon.HashBytes(job.Canon)
}

// Deadline derives a request's working context from its
// X-Mmlp-Deadline-Ms header, or from def when the header is absent (see
// obs.DeadlineContext). A malformed header is answered 400 here and ok is
// false; otherwise the caller defers cancel.
func Deadline(w http.ResponseWriter, r *http.Request, def time.Duration) (ctx context.Context, cancel context.CancelFunc, ok bool) {
	ctx, cancel, err := obs.DeadlineContext(r, def)
	if err != nil {
		Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, err)
		return nil, nil, false
	}
	if cancel == nil {
		cancel = func() {}
	}
	return ctx, cancel, true
}

// Trace wraps h so every /v1/ response echoes the request's X-Mmlp-Trace
// ID, error responses included: the header is set before h runs, so no
// response path can drop it. With mint — the router, where fleet requests
// are born — a request without an ID gets a fresh one, and the ID rides in
// the request context so every shard hop carries it. Without mint — a
// shard — only a supplied ID is echoed.
func Trace(h http.Handler, mint bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			id := r.Header.Get(obs.TraceHeader)
			if id == "" && mint {
				id = obs.NewTraceID()
			}
			if id != "" {
				w.Header().Set(obs.TraceHeader, id)
			}
			if mint {
				r = r.WithContext(obs.WithTraceID(r.Context(), id))
			}
		}
		h.ServeHTTP(w, r)
	})
}

// BatchWriter starts a /v1/batch response in the encoding r's Accept
// header negotiates — the binary result frame when it names
// application/x-mmlp-canon-results, NDJSON otherwise; either request
// encoding may pick either — and returns the function that writes and
// flushes one record. An NDJSON line is mmlp.AppendAnswer's, and a record
// JSON cannot carry becomes an error line for its job. The caller
// serializes calls.
func BatchWriter(w http.ResponseWriter, r *http.Request) func(mmlp.BatchItem) {
	flusher, _ := w.(http.Flusher)
	var write func(*mmlp.BatchItem)
	if strings.Contains(r.Header.Get("Accept"), mmlp.ContentTypeCanonResults) {
		w.Header().Set("Content-Type", mmlp.ContentTypeCanonResults)
		w.Write(canon.AppendResultsHeader(nil))
		var buf []byte
		write = func(item *mmlp.BatchItem) {
			buf = canon.AppendResult(buf[:0], item)
			w.Write(buf)
		}
	} else {
		w.Header().Set("Content-Type", mmlp.ContentTypeNDJSON)
		var buf []byte
		write = func(item *mmlp.BatchItem) {
			var err error
			if buf, err = mmlp.AppendAnswer(buf[:0], item, nil); err != nil {
				// The job still gets its one line: the error in place of
				// an answer no JSON can carry.
				bad := mmlp.BatchItem{Index: item.Index, Error: fmt.Sprintf("encode result: %v", err)}
				buf, _ = mmlp.AppendAnswer(buf[:0], &bad, nil)
			}
			w.Write(buf)
		}
	}
	return func(item mmlp.BatchItem) {
		write(&item)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// Capabilities is the /v1/capabilities document of one tier: both serve
// the same endpoints, engines, content types and wire limits, so clients
// feature-detect uniformly at either. The caller fills in its own Shed or
// Replication.
func Capabilities(service string, maxBody int64, delta bool) mmlp.Capabilities {
	return mmlp.Capabilities{
		Service: service,
		Endpoints: []string{
			"/v1/solve", "/v1/delta", "/v1/batch", "/v1/capabilities",
			"/healthz", "/statsz", "/metrics", "/admin/ring",
		},
		Engines: mmlp.EngineNames(),
		ContentTypes: []string{
			mmlp.ContentTypeJSON, mmlp.ContentTypeCanon, mmlp.ContentTypeCanonBatch,
			mmlp.ContentTypeCanonResults, mmlp.ContentTypeNDJSON,
		},
		MaxWireR:        mmlp.MaxWireR,
		MaxWireBinIters: mmlp.MaxWireBinIters,
		MaxWireAgents:   mmlp.MaxWireAgents,
		MaxWireEdits:    mmlp.MaxWireEdits,
		MaxBodyBytes:    maxBody,
		Delta:           delta,
	}
}

// WriteMetrics answers a /metrics scrape: render's Prometheus text plus
// the build-identity gauge, buffered so a scrape never sees a partial page.
func WriteMetrics(w http.ResponseWriter, render func(io.Writer)) {
	var b bytes.Buffer
	render(&b)
	obs.WriteBuildInfo(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes())
}
