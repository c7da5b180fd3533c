package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	maxminlp "repro"
	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
)

// testServer builds a handler on a small pool (no result cache).
func testServer(t *testing.T, maxBody int64) *server {
	t.Helper()
	return testServerOpts(t, maxBody, batch.Options{Workers: 2, Queue: 2})
}

// testServerOpts builds a handler on a pool with explicit options.
func testServerOpts(t *testing.T, maxBody int64, o batch.Options) *server {
	t.Helper()
	pool := batch.NewPool(o)
	t.Cleanup(pool.Close)
	return newServer(pool, maxBody)
}

func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func solveBody(t *testing.T, in *mmlp.Instance, extra string) string {
	t.Helper()
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return `{"instance":` + string(raw) + extra + `}`
}

func TestSolveEndpoint(t *testing.T) {
	h := testServer(t, 1<<20)
	in := gen.Random(gen.RandomConfig{Agents: 12, MaxDegI: 3, MaxDegK: 3, ExtraCons: 4, ExtraObjs: 2}, 1)

	w := post(h, "/v1/solve", solveBody(t, in, `,"r":3,"disable_special_cases":true`))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp mmlp.SolveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want, err := maxminlp.SolveLocal(in, maxminlp.LocalOptions{R: 3, DisableSpecialCases: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != want.Status.String() || resp.Utility != want.Utility || resp.UpperBound != want.UpperBound {
		t.Fatalf("resp = %+v, want status=%v utility=%v ub=%v", resp, want.Status, want.Utility, want.UpperBound)
	}
	for v := range want.X {
		if resp.X[v] != want.X[v] {
			t.Fatalf("X[%d] = %v, want %v", v, resp.X[v], want.X[v])
		}
	}
}

func TestSolveEndpointDistributed(t *testing.T) {
	h := testServer(t, 1<<20)
	in := gen.TriNecklace(4)
	w := post(h, "/v1/solve", solveBody(t, in, `,"engine":"dist"`))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp mmlp.SolveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rounds == 0 || resp.Messages == 0 {
		t.Fatalf("distributed response missing traffic stats: %+v", resp)
	}
}

func TestSolveEndpointErrors(t *testing.T) {
	h := testServer(t, 256)
	cases := []struct {
		name, body string
		code       int
		errCode    string
	}{
		{"malformed JSON", `{"instance": nope}`, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument},
		{"missing instance", `{}`, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument},
		{"unknown engine", `{"instance":{"num_agents":0},"engine":"simplex"}`, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument},
		{"oversized r", `{"instance":{"num_agents":0},"r":2000000000}`, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument},
		{"oversized num_agents", `{"instance":{"num_agents":2000000000}}`, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument},
		{"invalid instance", `{"instance":{"num_agents":1,"constraints":[{"terms":[{"agent":0,"coef":-1}]}]}}`, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument},
		{"oversized body", `{"instance":{"num_agents":1,"objectives":[` + strings.Repeat(`{"terms":[]},`, 64) + `{"terms":[]}]}}`, http.StatusRequestEntityTooLarge, mmlp.ErrCodeBodyTooLarge},
	}
	for _, c := range cases {
		w := post(h, "/v1/solve", c.body)
		if w.Code != c.code {
			t.Fatalf("%s: status %d, want %d (body %s)", c.name, w.Code, c.code, w.Body)
		}
		var er mmlp.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error.Message == "" {
			t.Fatalf("%s: error body %q (%v)", c.name, w.Body, err)
		}
		if er.Error.Code != c.errCode {
			t.Fatalf("%s: error code %q, want %q", c.name, er.Error.Code, c.errCode)
		}
	}
}

// TestBatchEndpoint checks the NDJSON stream: one line per job, every
// index present exactly once, and each payload bit-identical to the
// sequential solve of that job.
func TestBatchEndpoint(t *testing.T) {
	h := testServer(t, 1<<20)
	const n = 9
	ins := make([]*mmlp.Instance, n)
	reqs := make([]mmlp.SolveRequest, n)
	for i := range reqs {
		ins[i] = gen.Random(gen.RandomConfig{Agents: 8 + i, MaxDegI: 3, MaxDegK: 3, ExtraCons: 3, ExtraObjs: 1}, int64(i+1))
		reqs[i] = mmlp.SolveRequest{Instance: ins[i], R: 3, DisableSpecialCases: true}
	}
	body, err := json.Marshal(mmlp.BatchRequest{Jobs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	w := post(h, "/v1/batch", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}

	seen := make(map[int]bool)
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	for sc.Scan() {
		var item mmlp.BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if item.Error != "" {
			t.Fatalf("job %d failed: %s", item.Index, item.Error)
		}
		if seen[item.Index] {
			t.Fatalf("index %d emitted twice", item.Index)
		}
		seen[item.Index] = true
		want, err := maxminlp.SolveLocal(ins[item.Index], maxminlp.LocalOptions{R: 3, DisableSpecialCases: true})
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.X {
			if item.X[v] != want.X[v] {
				t.Fatalf("job %d: X[%d] = %v, want %v", item.Index, v, item.X[v], want.X[v])
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("got %d lines, want %d", len(seen), n)
	}
}

func TestBatchEndpointErrors(t *testing.T) {
	h := testServer(t, 1<<20)
	if w := post(h, "/v1/batch", `{"jobs":[]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", w.Code)
	}
	if w := post(h, "/v1/batch", `{"jobs":[{"instance":{"num_agents":0},"r":1}]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad job: status %d", w.Code)
	}
	// Invalid instance *contents* surface as a per-job error line, not a
	// request-level failure: one bad job must not kill the batch.
	body := `{"jobs":[{"instance":{"num_agents":1,"constraints":[{"terms":[{"agent":0,"coef":-1}]}]}}]}`
	w := post(h, "/v1/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("invalid-instance job: status %d", w.Code)
	}
	var item mmlp.BatchItem
	if err := json.Unmarshal(bytes.TrimSpace(w.Body.Bytes()), &item); err != nil {
		t.Fatal(err)
	}
	if item.Index != 0 || item.Error == "" {
		t.Fatalf("item = %+v, want index 0 with error", item)
	}
}

func TestHealthAndStats(t *testing.T) {
	h := testServer(t, 1<<20)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body)
	}

	// Solve once so the stats move.
	in := gen.TriNecklace(3)
	if w := post(h, "/v1/solve", solveBody(t, in, ``)); w.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", w.Code, w.Body)
	}
	req = httptest.NewRequest(http.MethodGet, "/statsz", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("statsz: %d", w.Code)
	}
	var st struct {
		Workers int   `json:"workers"`
		Jobs    int64 `json:"jobs"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 || st.Jobs < 1 {
		t.Fatalf("statsz = %s", w.Body)
	}
}

// TestStatszCacheUnderConcurrentLoad is the acceptance check for the
// serving integration: many goroutines solve the same instance against a
// cached pool (run under -race in CI), the responses are all bit-identical
// with the later ones tagged "cached", and /statsz reports live
// hit/miss/coalesced counters that add up to the request count.
func TestStatszCacheUnderConcurrentLoad(t *testing.T) {
	h := testServerOpts(t, 1<<20, batch.Options{Workers: 4, Queue: 8, CacheBytes: 1 << 20, CacheShards: 4})
	in := gen.Random(gen.RandomConfig{Agents: 14, MaxDegI: 3, MaxDegK: 3, ExtraCons: 4, ExtraObjs: 2}, 21)
	body := solveBody(t, in, `,"r":3,"disable_special_cases":true`)
	want, err := maxminlp.SolveLocal(in, maxminlp.LocalOptions{R: 3, DisableSpecialCases: true})
	if err != nil {
		t.Fatal(err)
	}

	const requests = 32
	responses := make([]mmlp.SolveResponse, requests)
	var wg sync.WaitGroup
	for g := 0; g < requests; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := post(h, "/v1/solve", body)
			if w.Code != http.StatusOK {
				t.Errorf("request %d: status %d: %s", g, w.Code, w.Body)
				return
			}
			if err := json.Unmarshal(w.Body.Bytes(), &responses[g]); err != nil {
				t.Errorf("request %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	cachedCount := 0
	for g, resp := range responses {
		if resp.Cached {
			cachedCount++
		}
		for v := range want.X {
			if resp.X[v] != want.X[v] {
				t.Fatalf("request %d: X[%d] = %v, want %v", g, v, resp.X[v], want.X[v])
			}
		}
	}
	if cachedCount == 0 {
		t.Fatal("no response was answered from the cache")
	}
	// Every burst request may legitimately coalesce behind the leader's
	// flight (the usual outcome on a slow runner, e.g. under -race), so one
	// follow-up after the burst pins a plain hit.
	if w := post(h, "/v1/solve", body); w.Code != http.StatusOK {
		t.Fatalf("follow-up: status %d: %s", w.Code, w.Body)
	}
	const lookups = requests + 1

	req := httptest.NewRequest(http.MethodGet, "/statsz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var st struct {
		Jobs  int64 `json:"jobs"`
		Cache *struct {
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Coalesced int64 `json:"coalesced"`
			Entries   int   `json:"entries"`
			Bytes     int64 `json:"bytes"`
			MaxBytes  int64 `json:"max_bytes"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("statsz: %v (%s)", err, w.Body)
	}
	if st.Cache == nil {
		t.Fatalf("statsz has no cache block: %s", w.Body)
	}
	if st.Cache.Hits+st.Cache.Misses+st.Cache.Coalesced != lookups {
		t.Fatalf("cache counters %+v do not add up to %d requests", st.Cache, lookups)
	}
	if st.Cache.Hits == 0 || st.Cache.Misses == 0 || st.Cache.Entries != 1 || st.Cache.Bytes == 0 {
		t.Fatalf("cache block = %+v", st.Cache)
	}

	// Deltas keep the invariant: a burst of identical edits against the
	// warm base adds exactly one lookup per request, under the edited key —
	// the base fetch is not a lookup — with one delta miss (the leader's)
	// and a delta hit for every request it answered.
	const deltas = 16
	dbody := deltaBody(t, engine.SolveKey(in, engine.Options{R: 3, DisableSpecialCases: true}).String(), reweightEdits(in, 2))
	for g := 0; g < deltas; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w := post(h, "/v1/delta", dbody); w.Code != http.StatusOK {
				t.Errorf("delta: status %d: %s", w.Code, w.Body)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	var dst struct {
		DeltaHits   int64 `json:"delta_hits"`
		DeltaMisses int64 `json:"delta_misses"`
		Cache       struct {
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Coalesced int64 `json:"coalesced"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dst); err != nil {
		t.Fatalf("statsz: %v (%s)", err, w.Body)
	}
	if got := dst.Cache.Hits + dst.Cache.Misses + dst.Cache.Coalesced; got != lookups+deltas {
		t.Fatalf("cache counters %+v add up to %d, want %d solves + %d deltas", dst.Cache, got, lookups, deltas)
	}
	if dst.DeltaMisses != 1 || dst.DeltaHits != deltas-1 {
		t.Fatalf("delta counters: hits=%d misses=%d, want %d/1", dst.DeltaHits, dst.DeltaMisses, deltas-1)
	}

	// The uncached server keeps /statsz free of the block.
	plain := testServer(t, 1<<20)
	w = httptest.NewRecorder()
	plain.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	if strings.Contains(w.Body.String(), `"cache"`) {
		t.Fatalf("uncached /statsz reports a cache block: %s", w.Body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := testServer(t, 1<<20)
	req := httptest.NewRequest(http.MethodGet, "/v1/solve", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve: status %d", w.Code)
	}
}

// TestStatszRaw checks the stats block the shard router scrapes: typed
// fields, exact counters, and histogram-derived latencies.
func TestStatszRaw(t *testing.T) {
	h := testServerOpts(t, 1<<20, batch.Options{Workers: 2, Queue: 2, CacheBytes: 1 << 20})
	in := gen.TriNecklace(3)
	body := solveBody(t, in, ``)
	for i := 0; i < 3; i++ { // 1 miss + 2 hits
		if w := post(h, "/v1/solve", body); w.Code != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, w.Code, w.Body)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statsz?raw=1", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("statsz?raw=1: %d", w.Code)
	}
	var raw mmlp.StatsRaw
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatalf("raw statsz did not decode into mmlp.StatsRaw: %v (%s)", err, w.Body)
	}
	if raw.Workers != 2 || raw.Jobs != 3 || raw.Errors != 0 {
		t.Fatalf("raw = %+v", raw)
	}
	if raw.Cache == nil || raw.Cache.Misses != 1 || raw.Cache.Hits != 2 || raw.Cache.Entries != 1 {
		t.Fatalf("raw cache = %+v", raw.Cache)
	}
	if raw.P50NS <= 0 || raw.MaxNS < raw.P50NS || raw.UptimeNS <= 0 {
		t.Fatalf("raw latencies = %+v", raw)
	}
}

// TestParseFlags pins the flag-validation contract: explicitly non-positive
// resource sizes are rejected (exit 2 in main), while omitting a flag keeps
// its auto default; -cache-bytes 0 stays the documented cache-off switch.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
	}{
		{"defaults", nil, true},
		{"all set", []string{"-workers", "4", "-queue", "8", "-cache-shards", "2", "-cache-bytes", "1024"}, true},
		{"cache off", []string{"-cache-bytes", "0"}, true},
		{"explicit zero workers", []string{"-workers", "0"}, false},
		{"negative workers", []string{"-workers", "-1"}, false},
		{"explicit zero queue", []string{"-queue", "0"}, false},
		{"negative queue", []string{"-queue", "-3"}, false},
		{"explicit zero cache-shards", []string{"-cache-shards", "0"}, false},
		{"negative cache-shards", []string{"-cache-shards", "-2"}, false},
		{"negative cache-bytes", []string{"-cache-bytes", "-1"}, false},
		{"zero max-body", []string{"-max-body", "0"}, false},
		{"negative job-timeout", []string{"-job-timeout", "-1s"}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := parseFlags(c.args)
			if c.ok && (err != nil || cfg == nil) {
				t.Fatalf("parseFlags(%q) failed: %v", c.args, err)
			}
			if !c.ok && err == nil {
				t.Fatalf("parseFlags(%q) accepted an invalid value", c.args)
			}
		})
	}
}
