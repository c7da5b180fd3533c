package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/obs"
)

// TestTraceEchoOnEveryV1Response: solves, deltas and batches, answered or
// rejected, echo a supplied X-Mmlp-Trace ID, and a shard never mints one.
func TestTraceEchoOnEveryV1Response(t *testing.T) {
	h := cachedServer(t)
	in := gen.Random(gen.RandomConfig{Agents: 10, MaxDegI: 3, MaxDegK: 3, ExtraCons: 3, ExtraObjs: 1}, 17)
	base := seedBaseHTTP(t, h, in)
	batchOK, err := json.Marshal(mmlp.BatchRequest{Jobs: []mmlp.SolveRequest{{Instance: in, R: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"solve ok", "/v1/solve", solveBody(t, in, `,"r":3`), http.StatusOK},
		{"solve 400", "/v1/solve", `{"instance": nope}`, http.StatusBadRequest},
		{"delta ok", "/v1/delta", deltaBody(t, base, reweightEdits(in, 2)), http.StatusOK},
		{"delta 400", "/v1/delta", `{"base":"abc"}`, http.StatusBadRequest},
		{"delta 404", "/v1/delta", `{"base":"` + strings.Repeat("ab", 32) + `"}`, http.StatusNotFound},
		{"batch ok", "/v1/batch", string(batchOK), http.StatusOK},
		{"batch 400", "/v1/batch", `{"jobs":[]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		for _, id := range []string{"cafe000000000017", ""} {
			req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body))
			if id != "" {
				req.Header.Set(obs.TraceHeader, id)
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != c.status {
				t.Fatalf("%s: status %d, want %d (%s)", c.name, w.Code, c.status, w.Body)
			}
			if got := w.Header().Get(obs.TraceHeader); got != id {
				t.Fatalf("%s: %s = %q, want %q", c.name, obs.TraceHeader, got, id)
			}
		}
	}
}

// TestCapabilitiesDeltaFollowsCache: a shard advertises /v1/delta as usable
// exactly when it has a result cache to hold a base; without one every
// delta answers 404/base_unknown.
func TestCapabilitiesDeltaFollowsCache(t *testing.T) {
	for _, cacheBytes := range []int64{0, 1 << 20} {
		h := testServerOpts(t, 1<<20, batch.Options{Workers: 1, Queue: 1, CacheBytes: cacheBytes})
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/capabilities", nil))
		var caps mmlp.Capabilities
		if err := json.Unmarshal(w.Body.Bytes(), &caps); err != nil {
			t.Fatalf("cache-bytes %d: %v (%s)", cacheBytes, err, w.Body)
		}
		if want := cacheBytes > 0; caps.Delta != want {
			t.Fatalf("cache-bytes %d: delta = %v, want %v", cacheBytes, caps.Delta, want)
		}
	}
}

// TestRingRejectsTrailingData: a ring update is one strict JSON value, so
// a body with data after it is malformed JSON, not an update.
func TestRingRejectsTrailingData(t *testing.T) {
	h := cachedServer(t)
	update := `{"members":["127.0.0.1:1"],"self":"127.0.0.1:1"}`
	if w := post(h, "/admin/ring", update); w.Code != http.StatusOK {
		t.Fatalf("update: status %d (%s)", w.Code, w.Body)
	}
	w := post(h, "/admin/ring", update+`garbage`)
	var er mmlp.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusBadRequest ||
		!strings.HasPrefix(er.Error.Message, "malformed JSON: ") {
		t.Fatalf("trailing data: status %d body %s, want 400 malformed JSON", w.Code, w.Body)
	}
}

// TestRingBounded: a ring update may not ask for more than
// shard.MaxPoints points, however few bytes it takes to ask.
func TestRingBounded(t *testing.T) {
	h := cachedServer(t)
	update := `{"members":["127.0.0.1:1"],"replicas":131072,"self":"127.0.0.1:1"}`
	if w := post(h, "/admin/ring", update); w.Code != http.StatusBadRequest {
		t.Fatalf("131,072-point ring: status %d (%s), want 400", w.Code, w.Body)
	}
}
