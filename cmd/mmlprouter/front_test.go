package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/canon"
	"repro/internal/gen"
	"repro/internal/httperr"
	"repro/internal/mmlp"
	"repro/internal/obs"
)

// keyOf is the routing key of one JSON solve request: the same canon.Key
// the owning shard's result cache will index the result under.
func keyOf(req *mmlp.SolveRequest) (canon.Key, error) {
	job, err := batch.JobFromRequest(req)
	if err != nil {
		return canon.Key{}, err
	}
	if job, err = httperr.CanonJob(job); err != nil {
		return canon.Key{}, err
	}
	return httperr.RouteKey(job), nil
}

// canonOf is the canon payload the router forwards for one valid JSON
// solve request.
func canonOf(t *testing.T, req *mmlp.SolveRequest) []byte {
	t.Helper()
	job, err := batch.JobFromRequest(req)
	if err == nil {
		job, err = httperr.CanonJob(job)
	}
	if err != nil {
		t.Fatal(err)
	}
	return job.Canon
}

// TestBadDeadlineLeavesPassthrough: a canon solve or batch whose
// X-Mmlp-Deadline-Ms header is malformed is rejected with 400 before any
// forward, so it must not count as canon passthrough.
func TestBadDeadlineLeavesPassthrough(t *testing.T) {
	shards, rt := testFleet(t, 2, nil)
	cases := []struct {
		name, path, contentType, deadline string
		body                              []byte
	}{
		{"solve", "/v1/solve", mmlp.ContentTypeCanon, "abc", canonPayload(t, 1)},
		{"batch", "/v1/batch", mmlp.ContentTypeCanonBatch, "-1",
			canon.AppendBatch(nil, [][]byte{canonPayload(t, 2), canonPayload(t, 3)})},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(string(c.body)))
		req.Header.Set("Content-Type", c.contentType)
		req.Header.Set(obs.DeadlineHeader, c.deadline)
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", c.name, w.Code, w.Body)
		}
		if got := rt.canonPassthrough.Load(); got != 0 {
			t.Fatalf("%s: canon_passthrough = %d after a rejected request, want 0", c.name, got)
		}
	}
	if st := rt.stats(); st.CanonPassthrough != 0 || st.Routed != 0 {
		t.Fatalf("router stats moved on rejected requests: %+v", st)
	}
	for _, f := range shards {
		f.mu.Lock()
		n := len(f.solves) + f.batchCalls
		f.mu.Unlock()
		if n != 0 {
			t.Fatalf("a rejected request reached shard %s", f.name)
		}
	}
}

// TestTraceEchoOnEveryV1Response: solves, deltas and batches, answered or
// rejected, all carry the request's X-Mmlp-Trace ID — the client's when it
// sent one, a router-minted one otherwise.
func TestTraceEchoOnEveryV1Response(t *testing.T) {
	_, rt := testFleet(t, 2, nil)
	in := gen.Random(gen.RandomConfig{Agents: 8, MaxDegI: 3, MaxDegK: 3, ExtraCons: 2, ExtraObjs: 1}, 5)
	delta, _ := deltaBodyFor(t, 5)
	_, batchOK := batchBody(t, 3)
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"solve ok", "/v1/solve", solveBody(t, in, `,"r":3`), http.StatusOK},
		{"solve 400", "/v1/solve", `{"instance": nope}`, http.StatusBadRequest},
		{"delta ok", "/v1/delta", delta, http.StatusOK},
		{"delta 400", "/v1/delta", `{"base":"abc"}`, http.StatusBadRequest},
		{"batch ok", "/v1/batch", batchOK, http.StatusOK},
		{"batch 400", "/v1/batch", `{"jobs":[]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		for _, client := range []string{"feedface00000042", ""} {
			req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body))
			if client != "" {
				req.Header.Set(obs.TraceHeader, client)
			}
			w := httptest.NewRecorder()
			rt.ServeHTTP(w, req)
			if w.Code != c.status {
				t.Fatalf("%s: status %d, want %d (%s)", c.name, w.Code, c.status, w.Body)
			}
			got := w.Header().Get(obs.TraceHeader)
			if client != "" && got != client {
				t.Fatalf("%s: echoed %q, want the client's %q", c.name, got, client)
			}
			if client == "" && len(got) != 16 {
				t.Fatalf("%s: minted trace ID %q, want 16 hex chars", c.name, got)
			}
		}
	}
}
