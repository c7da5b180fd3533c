package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/shard"
)

// waitFor polls cond until it holds or the deadline lapses; background
// write-through and prune notifications are asynchronous by design, so
// their observable effects are awaited, never assumed.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// ownedBatch builds a batch of n jobs all owned by addr on the router's
// current ring, so a failure of that one shard hits every job.
func ownedBatch(t *testing.T, rt *router, addr string, n int) ([]mmlp.SolveRequest, string) {
	t.Helper()
	var reqs []mmlp.SolveRequest
	for seed := int64(1); len(reqs) < n; seed++ {
		if seed > 10_000 {
			t.Fatal("could not collect enough jobs owned by one shard")
		}
		in := gen.Random(gen.RandomConfig{Agents: 5 + int(seed)%7, MaxDegI: 3, MaxDegK: 2, ExtraCons: 2, ExtraObjs: 1}, seed)
		req := mmlp.SolveRequest{Instance: in, R: 2 + int(seed)%2}
		key, err := keyOf(&req)
		if err != nil {
			t.Fatal(err)
		}
		if rt.client.Ring().Owner(key) == addr {
			reqs = append(reqs, req)
		}
	}
	raw, err := json.Marshal(mmlp.BatchRequest{Jobs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	return reqs, string(raw)
}

// TestBatchTruncatedStreamReforwards kills a shard's NDJSON stream
// mid-batch with replication enabled: the lines already emitted stand, and
// every unanswered job is re-forwarded to a replica — exactly one line per
// job, no error lines, no double answers.
func TestBatchTruncatedStreamReforwards(t *testing.T) {
	shards, rt := testFleetR(t, 3, 2, func(i int, f *fakeShard) {
		if i == 0 {
			f.dieAfter = 2
		}
	})
	const n = 12
	_, body := ownedBatch(t, rt, shards[0].addr, n)

	w := post(rt, "/v1/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	items := batchLines(t, w.Body.Bytes()) // fails on duplicate indices
	if len(items) != n {
		t.Fatalf("got %d lines, want %d", len(items), n)
	}
	for i := 0; i < n; i++ {
		item, ok := items[i]
		if !ok {
			t.Fatalf("index %d missing", i)
		}
		if item.Error != "" {
			t.Fatalf("job %d failed despite a live replica: %s", i, item.Error)
		}
	}
	st := rt.client.Stats()
	if st.Retried == 0 {
		t.Fatal("truncated stream did not trigger a re-forward")
	}
	// The dying shard answered with a valid (partial) HTTP response: that
	// proves it alive at the transport level, so it must NOT be marked down.
	if st.ShardDown != 0 {
		t.Fatalf("mid-stream truncation marked the shard down: %+v", st)
	}
	// Write-through still ran for the answered jobs.
	rt.replWG.Wait()
	if rt.replicated.Load() == 0 {
		t.Fatal("no write-through after the batch")
	}
}

// TestSolveWriteThroughWarmsReplica: with replication 2, a routed solve is
// re-POSTed in the background to the key's second replica — and only
// there — so the replica's cache holds the key before the primary dies.
func TestSolveWriteThroughWarmsReplica(t *testing.T) {
	shards, rt := testFleetR(t, 3, 2, nil)
	byAddr := map[string]*fakeShard{}
	for _, f := range shards {
		byAddr[f.addr] = f
	}
	in := gen.Random(gen.RandomConfig{Agents: 8, MaxDegI: 3, MaxDegK: 3, ExtraCons: 2, ExtraObjs: 1}, 42)
	req := mmlp.SolveRequest{Instance: in, R: 3}
	key, err := keyOf(&req)
	if err != nil {
		t.Fatal(err)
	}
	set := rt.client.Ring().Successors(key, 2)
	owner, backup := set[0], set[1]

	w := post(rt, "/v1/solve", solveBody(t, in, `,"r":3`))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Mmlp-Shard"); got != owner {
		t.Fatalf("answered by %q, want owner %q", got, owner)
	}
	rt.replWG.Wait()
	if got := rt.replicated.Load(); got != 1 {
		t.Fatalf("replicated = %d, want 1", got)
	}
	solvesOf := func(addr string) []string {
		f := byAddr[addr]
		f.mu.Lock()
		defer f.mu.Unlock()
		return slices.Clone(f.solves)
	}
	ownerSolves, backupSolves := solvesOf(owner), solvesOf(backup)
	if len(ownerSolves) != 1 || len(backupSolves) != 1 {
		t.Fatalf("owner saw %d solves, backup %d, want 1 and 1", len(ownerSolves), len(backupSolves))
	}
	if ownerSolves[0] != backupSolves[0] {
		t.Fatalf("warm body differs from routed body:\n%s\nvs\n%s", ownerSolves[0], backupSolves[0])
	}
	for _, f := range shards {
		if f.addr != owner && f.addr != backup && len(solvesOf(f.addr)) != 0 {
			t.Fatalf("non-replica %s received a warm solve", f.name)
		}
	}
}

// adminGet decodes GET /admin/ring.
func adminGet(t *testing.T, rt *router) mmlp.RingStatus {
	t.Helper()
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/admin/ring", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /admin/ring: %d %s", w.Code, w.Body)
	}
	var st mmlp.RingStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAdminRingBounded: at the default 128 virtual nodes a proposal of
// 513 members asks for 65,664 ring points, past shard.MaxPoints; it is
// 400 and leaves the topology alone.
func TestAdminRingBounded(t *testing.T) {
	ring, err := shard.New([]string{"127.0.0.1:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := newRouter(shard.NewClient(ring, shard.ClientOptions{}), 1<<20)
	members := make([]string, 513)
	for i := range members {
		members[i] = fmt.Sprintf("10.0.%d.%d:8080", i/256, i%256)
	}
	prop, err := json.Marshal(mmlp.RingProposal{Members: members})
	if err != nil {
		t.Fatal(err)
	}
	if w := post(rt, "/admin/ring", string(prop)); w.Code != http.StatusBadRequest {
		t.Fatalf("513-member proposal: status %d (%s), want 400", w.Code, w.Body)
	}
	if st := adminGet(t, rt); st.Version != 1 || len(st.Members) != 1 {
		t.Fatalf("ring status after a rejected proposal = %+v", st)
	}
}

// TestAdminRingCutover walks the full handover: propose a smaller member
// set while a request is pinned to the old ring, watch the drain through
// GET /admin/ring, reject a concurrent proposal with 409, and — once the
// pin releases — see every shard of either generation receive its prune
// notification, the leaver's naming a member set without it.
func TestAdminRingCutover(t *testing.T) {
	shards, rt := testFleetR(t, 3, 2, nil)

	st := adminGet(t, rt)
	if st.Version != 1 || len(st.Members) != 3 || st.Replication != 2 || st.Draining != nil {
		t.Fatalf("initial ring status = %+v", st)
	}

	// Invalid proposals are 400 before any topology change.
	if w := post(rt, "/admin/ring", `{"members":[]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty proposal: status %d", w.Code)
	}
	if w := post(rt, "/admin/ring", `{"members": nope}`); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed proposal: status %d", w.Code)
	}

	// Pin the old generation, as an in-flight batch would.
	pin := rt.client.Acquire()

	keep := []string{shards[0].addr, shards[1].addr}
	prop, err := json.Marshal(mmlp.RingProposal{Members: keep})
	if err != nil {
		t.Fatal(err)
	}
	w := post(rt, "/admin/ring", string(prop))
	if w.Code != http.StatusOK {
		t.Fatalf("proposal: status %d: %s", w.Code, w.Body)
	}
	var accepted mmlp.RingStatus
	if err := json.Unmarshal(w.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Version != 2 || accepted.Draining == nil ||
		accepted.Draining.FromVersion != 1 || accepted.Draining.Inflight != 1 {
		t.Fatalf("accepted status = %+v (draining %+v)", accepted, accepted.Draining)
	}

	// One cutover at a time.
	if w := post(rt, "/admin/ring", string(prop)); w.Code != http.StatusConflict {
		t.Fatalf("second proposal during drain: status %d, want 409", w.Code)
	}

	rt.client.Release(pin)
	waitFor(t, "drain completion", func() bool { return adminGet(t, rt).Draining == nil })

	// Every member of either generation hears about the new assignment.
	sortedKeep := slices.Clone(keep)
	slices.Sort(sortedKeep)
	for i, f := range shards {
		waitFor(t, fmt.Sprintf("prune notification to shard %d", i), func() bool {
			f.mu.Lock()
			defer f.mu.Unlock()
			return len(f.ringUpdates) > 0
		})
		f.mu.Lock()
		upd := f.ringUpdates[len(f.ringUpdates)-1]
		f.mu.Unlock()
		if upd.Self != f.addr {
			t.Fatalf("shard %d told Self=%q, is %q", i, upd.Self, f.addr)
		}
		if !slices.Equal(upd.Members, sortedKeep) {
			t.Fatalf("shard %d told members %v, want %v", i, upd.Members, sortedKeep)
		}
		if upd.Replication != 2 {
			t.Fatalf("shard %d told replication %d, want 2", i, upd.Replication)
		}
		inSet := slices.Contains(keep, f.addr)
		if inSet != (i != 2) {
			t.Fatalf("shard %d membership: in new set = %v", i, inSet)
		}
	}
	rt.replWG.Wait()

	// The fleet view reflects the new generation.
	wst := httptest.NewRecorder()
	rt.ServeHTTP(wst, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	var fleet mmlp.FleetStats
	if err := json.Unmarshal(wst.Body.Bytes(), &fleet); err != nil {
		t.Fatal(err)
	}
	if fleet.Router.RingVersion != 2 || fleet.Router.Draining || fleet.Router.Replication != 2 {
		t.Fatalf("router stats after cutover = %+v", fleet.Router)
	}
	if fleet.Router.Shards != 2 {
		t.Fatalf("fleet view scraped %d shards, want the new ring's 2", fleet.Router.Shards)
	}
}
