package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/obs"
	"repro/internal/shard"
)

// fakeShard is an httptest stand-in for one mmlpserve process: it answers
// /v1/solve with a body naming itself, /v1/batch with one NDJSON line per
// job, and /statsz?raw=1 with canned numbers. The router's contract with a
// shard is purely HTTP, so routing, merging and aggregation are all
// observable through fakes.
type fakeShard struct {
	name        string
	addr        string
	stats       mmlp.StatsRaw
	lineDelay   time.Duration // slows the batch stream down
	dieAfter    int           // >0: the first /v1/batch aborts after this many lines
	deltaStatus int           // non-zero: /v1/delta answers this status with a typed envelope

	mu            sync.Mutex
	solves        []string // bodies received on /v1/solve
	deltas        []string // bodies received on /v1/delta
	solveTraces   []string // X-Mmlp-Trace headers received on /v1/solve
	solveQueries  []string // raw query strings received on /v1/solve
	batchTraces   []string // X-Mmlp-Trace headers received on /v1/batch
	batch         int      // jobs received on /v1/batch
	batchCalls    int
	canonPayloads [][]byte               // canon payloads received on /v1/batch
	ringUpdates   []mmlp.ShardRingUpdate // bodies received on /admin/ring
}

func (f *fakeShard) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		f.mu.Lock()
		f.solves = append(f.solves, string(body))
		f.solveTraces = append(f.solveTraces, r.Header.Get(obs.TraceHeader))
		f.solveQueries = append(f.solveQueries, r.URL.RawQuery)
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"optimal\",\"utility\":1,\"upper_bound\":1,\"latency_ms\":0.5,\"shard\":%q}\n", f.name)
	})
	mux.HandleFunc("POST /v1/delta", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		f.mu.Lock()
		f.deltas = append(f.deltas, string(body))
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if f.deltaStatus != 0 {
			w.WriteHeader(f.deltaStatus)
			json.NewEncoder(w).Encode(mmlp.ErrorResponse{Error: mmlp.ErrorDetail{
				Code: mmlp.ErrCodeBaseUnknown, Message: "base key unknown (canned)",
			}})
			return
		}
		fmt.Fprintf(w, "{\"status\":\"approximate\",\"utility\":1,\"upper_bound\":1,\"key\":\"k\",\"dirty_agents\":1,\"total_agents\":2,\"spliced\":true,\"latency_ms\":0.5,\"shard\":%q}\n", f.name)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		// Routers send every sub-batch as one canon frame. Each payload's
		// length is echoed as Utility so index remapping is checkable (a
		// real shard decodes the payload; the fake only needs a
		// distinguishing echo).
		frame, err := io.ReadAll(r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		payloads, err := canon.SplitBatch(frame)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		var utilities []float64
		for _, p := range payloads {
			utilities = append(utilities, float64(len(p)))
		}
		f.mu.Lock()
		f.canonPayloads = append(f.canonPayloads, payloads...)
		f.batch += len(utilities)
		f.batchTraces = append(f.batchTraces, r.Header.Get(obs.TraceHeader))
		f.batchCalls++
		die := f.dieAfter > 0 && f.batchCalls == 1
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		for i, u := range utilities {
			if die && i == f.dieAfter {
				// Crash mid-stream: the connection aborts after the lines
				// already flushed, exactly like a shard dying mid-batch.
				panic(http.ErrAbortHandler)
			}
			if f.lineDelay > 0 {
				time.Sleep(f.lineDelay)
			}
			enc.Encode(mmlp.BatchItem{
				Index: i,
				SolveResponse: mmlp.SolveResponse{
					Status: "optimal", Utility: u, UpperBound: 1,
				},
			})
			if flusher != nil {
				flusher.Flush()
			}
		}
	})
	mux.HandleFunc("POST /admin/ring", func(w http.ResponseWriter, r *http.Request) {
		var upd mmlp.ShardRingUpdate
		if err := json.NewDecoder(r.Body).Decode(&upd); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.ringUpdates = append(f.ringUpdates, upd)
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(mmlp.PruneResponse{})
	})
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("raw") != "1" {
			http.Error(w, "want raw=1", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(f.stats)
	})
	return mux
}

// testFleet boots n fake shards and a router handler over them.
func testFleet(t *testing.T, n int, tweak func(i int, f *fakeShard)) ([]*fakeShard, *router) {
	t.Helper()
	return testFleetR(t, n, 1, tweak)
}

// testFleetR is testFleet with a replica-set size, wired like main: the
// client's cutover hook delivers the router's prune notifications.
func testFleetR(t *testing.T, n, replication int, tweak func(i int, f *fakeShard)) ([]*fakeShard, *router) {
	t.Helper()
	shards := make([]*fakeShard, n)
	addrs := make([]string, n)
	for i := range shards {
		f := &fakeShard{name: fmt.Sprintf("shard%d", i)}
		if tweak != nil {
			tweak(i, f)
		}
		srv := httptest.NewServer(f.handler())
		t.Cleanup(srv.Close)
		u, err := url.Parse(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		f.addr = u.Host
		shards[i] = f
		addrs[i] = u.Host
	}
	ring, err := shard.New(addrs, 32)
	if err != nil {
		t.Fatal(err)
	}
	var rt *router
	client := shard.NewClient(ring, shard.ClientOptions{
		Cooldown:      time.Minute,
		Replication:   replication,
		OnCutoverDone: func(old, new *shard.Ring) { rt.notifyCutover(old, new) },
	})
	rt = newRouter(client, 1<<20)
	return shards, rt
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

// TestSolveRoutesByCanonicalKey drives many instances — each in two
// syntactic spellings — and checks (a) the response is the owning shard's
// body verbatim, (b) both spellings of one problem land on the same shard,
// (c) the shard named by X-Mmlp-Shard matches the ring's assignment.
func TestSolveRoutesByCanonicalKey(t *testing.T) {
	shards, rt := testFleet(t, 3, nil)
	byAddr := map[string]*fakeShard{}
	for _, f := range shards {
		byAddr[f.addr] = f
	}
	hitShards := map[string]bool{}
	for seed := int64(1); seed <= 12; seed++ {
		in := gen.Random(gen.RandomConfig{Agents: 6 + int(seed), MaxDegI: 3, MaxDegK: 3, ExtraCons: 2, ExtraObjs: 1}, seed)
		req := mmlp.SolveRequest{Instance: in, R: 3}
		key, err := keyOf(&req)
		if err != nil {
			t.Fatal(err)
		}
		owner := rt.client.Ring().Owner(key)
		hitShards[owner] = true

		for variant, body := range map[string]string{
			"original": solveBody(t, in, `,"r":3`),
			"permuted": solveBody(t, gen.Permuted(in), `,"r":3`),
		} {
			w := post(rt, "/v1/solve", body)
			if w.Code != http.StatusOK {
				t.Fatalf("seed %d %s: status %d: %s", seed, variant, w.Code, w.Body)
			}
			if got := w.Header().Get("X-Mmlp-Shard"); got != owner {
				t.Fatalf("seed %d %s: routed to %q, ring owner is %q", seed, variant, got, owner)
			}
			if want := byAddr[owner].name; !strings.Contains(w.Body.String(), want) {
				t.Fatalf("seed %d %s: response %q not from %q", seed, variant, w.Body, want)
			}
		}
	}
	if len(hitShards) < 2 {
		t.Fatalf("all 12 keys landed on one shard; ring is not spreading (%v)", hitShards)
	}
	// Verbatim relay: the fake's body ends with the newline it wrote.
	in := gen.TriNecklace(2)
	w := post(rt, "/v1/solve", solveBody(t, in, ``))
	if !strings.HasSuffix(w.Body.String(), "}\n") || !strings.Contains(w.Body.String(), `"shard"`) {
		t.Fatalf("response not relayed verbatim: %q", w.Body)
	}
}

// invalidCase is one instance that fails Instance.Validate.
type invalidCase struct {
	name string
	in   *mmlp.Instance
}

// invalidInstances holds one instance per class Instance.Validate reports.
// Each bad term sits in constraint 1, which canonical row order moves to
// index 0, so a message computed after canonicalization would name the
// wrong row.
func invalidInstances() []invalidCase {
	row0 := mmlp.Constraint{Terms: []mmlp.Term{{Agent: 0, Coef: 1}, {Agent: 1, Coef: 1}, {Agent: 2, Coef: 1}}}
	withRow1 := func(terms ...mmlp.Term) *mmlp.Instance {
		return &mmlp.Instance{
			NumAgents: 3,
			Cons:      []mmlp.Constraint{row0, {Terms: terms}},
			Objs:      []mmlp.Objective{{Terms: []mmlp.Term{{Agent: 0, Coef: 1}, {Agent: 1, Coef: 1}, {Agent: 2, Coef: 1}}}},
		}
	}
	return []invalidCase{
		{"agent ≥ num_agents", withRow1(mmlp.Term{Agent: 1, Coef: 1}, mmlp.Term{Agent: 3, Coef: 1})},
		{"negative agent", withRow1(mmlp.Term{Agent: 1, Coef: 1}, mmlp.Term{Agent: -1, Coef: 1})},
		{"zero coefficient", withRow1(mmlp.Term{Agent: 1, Coef: 1}, mmlp.Term{Agent: 2, Coef: 0})},
		{"negative coefficient", withRow1(mmlp.Term{Agent: 1, Coef: 1}, mmlp.Term{Agent: 2, Coef: -2})},
		{"duplicate agent", withRow1(mmlp.Term{Agent: 2, Coef: 1}, mmlp.Term{Agent: 2, Coef: 3})},
		{"negative num_agents", &mmlp.Instance{NumAgents: -1}},
	}
}

// TestSolveErrorsMatchServeContract checks the router rejects what a shard
// would reject, with the same status codes, before any forward happens.
// An invalid instance is answered here with a shard's exact verdict: 400
// invalid_argument carrying Validate's message.
func TestSolveErrorsMatchServeContract(t *testing.T) {
	shards, rt := testFleet(t, 2, nil)
	type errCase struct {
		name, body string
		code       int
		msg        string // when set, the exact error message
	}
	cases := []errCase{
		{"malformed JSON", `{"instance": nope}`, http.StatusBadRequest, ""},
		{"missing instance", `{}`, http.StatusBadRequest, ""},
		{"unknown engine", `{"instance":{"num_agents":0},"engine":"simplex"}`, http.StatusBadRequest, ""},
		{"oversized r", `{"instance":{"num_agents":0},"r":2000000000}`, http.StatusBadRequest, ""},
	}
	for _, c := range invalidInstances() {
		cases = append(cases, errCase{c.name, solveBody(t, c.in, `,"r":3`), http.StatusBadRequest, c.in.Validate().Error()})
	}
	for _, c := range cases {
		w := post(rt, "/v1/solve", c.body)
		if w.Code != c.code {
			t.Fatalf("%s: status %d, want %d (%s)", c.name, w.Code, c.code, w.Body)
		}
		var er mmlp.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error.Message == "" || er.Error.Code == "" {
			t.Fatalf("%s: error body %q (%v)", c.name, w.Body, err)
		}
		if c.msg != "" && (er.Error.Code != mmlp.ErrCodeInvalidArgument || er.Error.Message != c.msg) {
			t.Fatalf("%s: error %+v, want %s %q", c.name, er.Error, mmlp.ErrCodeInvalidArgument, c.msg)
		}
		if got := w.Header().Get("X-Mmlp-Shard"); got != "" {
			t.Fatalf("%s: a router-answered error names shard %q", c.name, got)
		}
	}
	for _, f := range shards {
		f.mu.Lock()
		n := len(f.solves)
		f.mu.Unlock()
		if n != 0 {
			t.Fatalf("invalid requests reached shard %s", f.name)
		}
	}
	if st := rt.stats(); st.Routed != 0 {
		t.Fatalf("rejected requests were routed: %+v", st)
	}
	// Oversized bodies 413 like a shard would.
	big := `{"instance":{"num_agents":1,"objectives":[` + strings.Repeat(`{"terms":[]},`, 200000) + `{"terms":[]}]}}`
	if w := post(rt, "/v1/solve", big); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d", w.Code)
	}
}

// batchLines decodes an NDJSON body into items keyed by index, failing on
// duplicates.
func batchLines(t *testing.T, body []byte) map[int]mmlp.BatchItem {
	t.Helper()
	items := map[int]mmlp.BatchItem{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var item mmlp.BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if _, dup := items[item.Index]; dup {
			t.Fatalf("index %d emitted twice", item.Index)
		}
		items[item.Index] = item
	}
	return items
}

// batchBody builds a batch over n distinct instances with R cycling 2..3.
func batchBody(t *testing.T, n int) ([]mmlp.SolveRequest, string) {
	t.Helper()
	reqs := make([]mmlp.SolveRequest, n)
	for i := range reqs {
		in := gen.Random(gen.RandomConfig{Agents: 5 + i%7, MaxDegI: 3, MaxDegK: 2, ExtraCons: 2, ExtraObjs: 1}, int64(i+1))
		reqs[i] = mmlp.SolveRequest{Instance: in, R: 2 + i%2}
	}
	raw, err := json.Marshal(mmlp.BatchRequest{Jobs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	return reqs, string(raw)
}

// TestBatchFanOutMerges checks a batch spanning all shards comes back with
// one line per job, indices rewritten to the original positions, and each
// job solved by the shard that owns its key.
func TestBatchFanOutMerges(t *testing.T) {
	shards, rt := testFleet(t, 3, nil)
	const n = 24
	reqs, body := batchBody(t, n)

	w := post(rt, "/v1/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	items := batchLines(t, w.Body.Bytes())
	if len(items) != n {
		t.Fatalf("got %d lines, want %d", len(items), n)
	}
	for i := 0; i < n; i++ {
		item, ok := items[i]
		if !ok {
			t.Fatalf("index %d missing", i)
		}
		if item.Error != "" {
			t.Fatalf("job %d failed: %s", i, item.Error)
		}
		// The fake echoes the length of the job's canon payload as Utility:
		// the index rewrite must pair each line with its original job, not
		// the sub-batch position.
		if want := float64(len(canonOf(t, &reqs[i]))); item.Utility != want {
			t.Fatalf("job %d: utility %v, want %v (index remap broken)", i, item.Utility, want)
		}
	}
	// Every job reached exactly one shard, and collectively all of them.
	total := 0
	for _, f := range shards {
		f.mu.Lock()
		total += f.batch
		f.mu.Unlock()
	}
	if total != n {
		t.Fatalf("shards saw %d jobs in total, want %d", total, n)
	}
}

// TestBatchConcurrentWithSlowShard is the race-job test: concurrent batch
// fan-outs while one shard trickles its lines out. Runs under -race in CI;
// correctness here is completeness of every merged stream.
func TestBatchConcurrentWithSlowShard(t *testing.T) {
	_, rt := testFleet(t, 3, func(i int, f *fakeShard) {
		if i == 0 {
			f.lineDelay = 3 * time.Millisecond
		}
	})
	const clients, n = 4, 16
	_, body := batchBody(t, n)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := post(rt, "/v1/batch", body)
			if w.Code != http.StatusOK {
				errs[c] = fmt.Errorf("client %d: status %d", c, w.Code)
				return
			}
			items := map[int]bool{}
			sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				var item mmlp.BatchItem
				if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
					errs[c] = fmt.Errorf("client %d: %v", c, err)
					return
				}
				if item.Error != "" {
					errs[c] = fmt.Errorf("client %d job %d: %s", c, item.Index, item.Error)
					return
				}
				items[item.Index] = true
			}
			if len(items) != n {
				errs[c] = fmt.Errorf("client %d: %d lines, want %d", c, len(items), n)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchFailover points one ring member at a dead port: its jobs must
// fail over to live replicas with no error lines, and the router stats
// must record the retries and the down transition.
func TestBatchFailover(t *testing.T) {
	shards, rt := testFleet(t, 2, nil)
	// Rebuild the router with an extra dead member on the ring.
	addrs := []string{shards[0].addr, shards[1].addr, "127.0.0.1:1"}
	ring, err := shard.New(addrs, 32)
	if err != nil {
		t.Fatal(err)
	}
	rt = newRouter(shard.NewClient(ring, shard.ClientOptions{Cooldown: time.Minute}), 1<<20)

	const n = 24
	_, body := batchBody(t, n)
	w := post(rt, "/v1/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	items := batchLines(t, w.Body.Bytes())
	if len(items) != n {
		t.Fatalf("got %d lines, want %d", len(items), n)
	}
	for i, item := range items {
		if item.Error != "" {
			t.Fatalf("job %d failed despite live replicas: %s", i, item.Error)
		}
	}
	st := rt.client.Stats()
	if st.ShardDown == 0 {
		t.Fatalf("dead member never marked down: %+v", st)
	}
	// A second batch routes straight around the corpse: no new retries.
	before := rt.client.Stats().Retried
	if w := post(rt, "/v1/batch", body); w.Code != http.StatusOK {
		t.Fatalf("second batch: status %d", w.Code)
	}
	if after := rt.client.Stats().Retried; after != before {
		t.Fatalf("second batch re-dialled the down member (%d → %d retries)", before, after)
	}
}

// TestBatchErrorsMatchServeContract: empty batches and invalid job
// envelopes 400 before any forward, with mmlpserve's messages.
func TestBatchErrorsMatchServeContract(t *testing.T) {
	_, rt := testFleet(t, 2, nil)
	if w := post(rt, "/v1/batch", `{"jobs":[]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", w.Code)
	}
	w := post(rt, "/v1/batch", `{"jobs":[{"instance":{"num_agents":0}},{"instance":{"num_agents":0},"r":1}]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad job: status %d", w.Code)
	}
	var er mmlp.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || !strings.HasPrefix(er.Error.Message, "job 1:") {
		t.Fatalf("error body %q, want a job 1 prefix", w.Body)
	}
}

// TestBatchInvalidInstancesAnsweredAtRouter: in a JSON batch, each job
// whose instance fails Validate gets its line from the router, carrying a
// shard's exact message, and is never routed; its valid siblings are
// answered by their shards.
func TestBatchInvalidInstancesAnsweredAtRouter(t *testing.T) {
	shards, rt := testFleet(t, 3, nil)
	valid, _ := batchBody(t, 8)
	var jobs []mmlp.SolveRequest
	want := map[int]string{} // index → the invalid job's message
	for i, c := range invalidInstances() {
		jobs = append(jobs, valid[i])
		want[len(jobs)] = c.in.Validate().Error()
		jobs = append(jobs, mmlp.SolveRequest{Instance: c.in, R: 3})
	}
	jobs = append(jobs, valid[6:]...)
	raw, err := json.Marshal(mmlp.BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}

	w := post(rt, "/v1/batch", string(raw))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	items := batchLines(t, w.Body.Bytes())
	if len(items) != len(jobs) {
		t.Fatalf("got %d lines, want %d", len(items), len(jobs))
	}
	for i := range jobs {
		item := items[i]
		if msg, bad := want[i]; bad {
			if item.Error != msg || item.Status != "" || item.X != nil {
				t.Fatalf("job %d: line %+v, want only the error %q", i, item, msg)
			}
			continue
		}
		if item.Error != "" {
			t.Fatalf("job %d failed: %s", i, item.Error)
		}
		if want := float64(len(canonOf(t, &jobs[i]))); item.Utility != want {
			t.Fatalf("job %d: utility %v, want %v (index remap broken)", i, item.Utility, want)
		}
	}
	seen := 0
	for _, f := range shards {
		f.mu.Lock()
		seen += f.batch
		f.mu.Unlock()
	}
	nValid := int64(len(jobs) - len(want))
	if st := rt.stats(); int64(seen) != nValid || st.Routed != nValid || st.CanonPassthrough != 0 {
		t.Fatalf("shards saw %d jobs, routed %d, passthrough %d; want %d, %d, 0",
			seen, st.Routed, st.CanonPassthrough, nValid, nValid)
	}
}

// TestStatszAggregation serves canned per-shard stats and checks the fleet
// view sums them, carries the per-shard blocks, and reports the router's
// own counters; a dead member appears with ok=false and is excluded from
// the sums.
func TestStatszAggregation(t *testing.T) {
	// Each canned block carries a solve histogram: shard 0 solved 10 jobs
	// around 1µs, shard 1 solved 30 around 1ms. The fleet quantiles must
	// come from the merged histograms, not from combining the per-process
	// P50/P99 fields.
	solveHist := func(n int, ns int64) *obs.HistRaw {
		var h obs.Histogram
		for i := 0; i < n; i++ {
			h.ObserveNS(ns)
		}
		return h.Snapshot()
	}
	stats := []mmlp.StatsRaw{
		{Workers: 2, Jobs: 10, Errors: 1, UptimeNS: 100, P50NS: 5, P99NS: 50, MaxNS: 60, AllocsPerJob: 4,
			Solve: solveHist(10, 1_000),
			Cache: &mmlp.CacheStatsRaw{Hits: 7, Misses: 3, Entries: 3, Bytes: 900, MaxBytes: 1 << 20}},
		{Workers: 2, Jobs: 30, Errors: 0, UptimeNS: 90, P50NS: 8, P99NS: 40, MaxNS: 80, AllocsPerJob: 8,
			Solve: solveHist(30, 1_000_000),
			Cache: &mmlp.CacheStatsRaw{Hits: 25, Misses: 5, Entries: 5, Bytes: 1500, MaxBytes: 1 << 20}},
	}
	shards, rt := testFleet(t, 2, func(i int, f *fakeShard) { f.stats = stats[i] })

	req := httptest.NewRequest(http.MethodGet, "/statsz", nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("statsz: %d", w.Code)
	}
	var fleet mmlp.FleetStats
	if err := json.Unmarshal(w.Body.Bytes(), &fleet); err != nil {
		t.Fatalf("decode: %v (%s)", err, w.Body)
	}
	if fleet.Router.Shards != 2 || fleet.Router.Healthy != 2 {
		t.Fatalf("router block = %+v", fleet.Router)
	}
	if fleet.Fleet.Jobs != 40 || fleet.Fleet.Errors != 1 || fleet.Fleet.Workers != 4 {
		t.Fatalf("fleet totals = %+v", fleet.Fleet)
	}
	if fleet.Fleet.Cache == nil || fleet.Fleet.Cache.Hits != 32 || fleet.Fleet.Cache.Misses != 8 ||
		fleet.Fleet.Cache.Entries != 8 || fleet.Fleet.Cache.Bytes != 2400 {
		t.Fatalf("fleet cache = %+v", fleet.Fleet.Cache)
	}
	// Job-weighted allocs: (4·10 + 8·30) / 40 = 7.
	if fleet.Fleet.AllocsPerJob != 7 {
		t.Fatalf("fleet allocs/job = %v, want 7", fleet.Fleet.AllocsPerJob)
	}
	// Quantiles derive from the merged histogram: 30 of 40 solves sit in
	// the ~1ms bucket, so both p50 and p99 land there (≤25% bucket error),
	// nowhere near the canned per-process P50NS/P99NS fields. MaxNS stays
	// the true max of the raw fields.
	if fleet.Fleet.Solve == nil || fleet.Fleet.Solve.Count != 40 {
		t.Fatalf("fleet solve hist = %+v", fleet.Fleet.Solve)
	}
	if p := fleet.Fleet.P50NS; p < 1_000_000 || p > 1_250_000 {
		t.Fatalf("fleet p50 = %d, want ~1ms from the merged histogram", p)
	}
	if p := fleet.Fleet.P99NS; p < 1_000_000 || p > 1_250_000 {
		t.Fatalf("fleet p99 = %d, want ~1ms from the merged histogram", p)
	}
	if fleet.Fleet.MaxNS != 80 {
		t.Fatalf("fleet latencies = %+v", fleet.Fleet)
	}
	if len(fleet.Shards) != 2 {
		t.Fatalf("%d shard blocks, want 2", len(fleet.Shards))
	}
	for _, ss := range fleet.Shards {
		if !ss.OK || ss.Stats == nil {
			t.Fatalf("shard block = %+v", ss)
		}
	}

	// With one member dead, its block reports the failure and the sums
	// shrink to the living.
	addrs := []string{shards[0].addr, "127.0.0.1:1"}
	ring, err := shard.New(addrs, 16)
	if err != nil {
		t.Fatal(err)
	}
	rt = newRouter(shard.NewClient(ring, shard.ClientOptions{Cooldown: time.Minute}), 1<<20)
	w = httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &fleet); err != nil {
		t.Fatal(err)
	}
	if fleet.Fleet.Jobs != 10 {
		t.Fatalf("fleet jobs = %d, want the living shard's 10", fleet.Fleet.Jobs)
	}
	deadBlocks := 0
	for _, ss := range fleet.Shards {
		if !ss.OK {
			deadBlocks++
			if ss.Error == "" {
				t.Fatalf("dead shard block has no error: %+v", ss)
			}
		}
	}
	if deadBlocks != 1 {
		t.Fatalf("%d dead blocks, want 1", deadBlocks)
	}
	if fleet.Router.Healthy != 1 {
		t.Fatalf("healthy = %d, want 1", fleet.Router.Healthy)
	}
}

// TestHealthz reports the fleet split.
func TestHealthz(t *testing.T) {
	_, rt := testFleet(t, 3, nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"shards":3`) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body)
	}
}
