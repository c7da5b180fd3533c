package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"time"

	"repro/internal/batch"
	"repro/internal/canon"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/shard"
)

// keyFor computes the canonical key the fleet routes and caches one
// request under.
func keyFor(req *mmlp.SolveRequest) (canon.Key, error) {
	job, err := batch.JobFromRequest(req)
	if err != nil {
		return canon.Key{}, err
	}
	return engine.SolveKey(job.In, job.Opts), nil
}

// fastSet builds n distinct quick problems for cache-warm phases.
func fastSet(seedBase int64, n int) []mmlp.SolveRequest {
	reqs := make([]mmlp.SolveRequest, n)
	for i := range reqs {
		in := gen.Random(gen.RandomConfig{
			Agents: 8 + i%9, MaxDegI: 3, MaxDegK: 3,
			ExtraCons: 2 + i%3, ExtraObjs: 1 + i%2,
		}, seedBase+int64(i))
		reqs[i] = mmlp.SolveRequest{Instance: in, R: 2 + i%2}
	}
	return reqs
}

// slowSet builds n compute-heavy problems (~hundreds of ms each), so a
// batch carrying them stays in flight long enough for mid-stream fault
// injection — a kill or a ring proposal — to land while lines are still
// streaming.
func slowSet(seedBase int64, n int) []mmlp.SolveRequest {
	reqs := make([]mmlp.SolveRequest, n)
	for i := range reqs {
		in := gen.Random(gen.RandomConfig{
			Agents: 300 + 10*i, MaxDegI: 3, MaxDegK: 3,
			ExtraCons: 8, ExtraObjs: 4,
		}, seedBase+int64(i))
		reqs[i] = mmlp.SolveRequest{Instance: in, Engine: mmlp.EngineDistCompact, R: 5, BinIters: 4000}
	}
	return reqs
}

func keysOf(reqs []mmlp.SolveRequest) ([]canon.Key, error) {
	keys := make([]canon.Key, len(reqs))
	for i := range reqs {
		k, err := keyFor(&reqs[i])
		if err != nil {
			return nil, fmt.Errorf("job %d invalid: %w", i, err)
		}
		keys[i] = k
	}
	return keys, nil
}

// kill SIGKILLs one child by name — no grace, the way a machine dies.
func (h *harness) kill(name string) error {
	for _, p := range h.procs {
		if p.name == name {
			if err := p.cmd.Process.Kill(); err != nil {
				return fmt.Errorf("kill %s: %w", name, err)
			}
			p.cmd.Wait()
			fmt.Printf("killed %s mid-run\n", name)
			return nil
		}
	}
	return fmt.Errorf("no process named %q", name)
}

// solveBothNormalized drives one request through the router and the direct
// reference, asserts bit-identity, and returns the normalized body plus
// the router's cached flag and answering shard.
func (h *harness) solveBothNormalized(i int, req *mmlp.SolveRequest) (norm []byte, cached bool, member string, err error) {
	rcode, rbody, rhdr, err := h.post(h.routerAddr, "/v1/solve", mmlp.ContentTypeJSON, req, nil)
	if err != nil {
		return nil, false, "", fmt.Errorf("job %d via router: %w", i, err)
	}
	member = rhdr.Get("X-Mmlp-Shard")
	dcode, dbody, _, err := h.post(h.directAddr, "/v1/solve", mmlp.ContentTypeJSON, req, nil)
	if err != nil {
		return nil, false, "", fmt.Errorf("job %d direct: %w", i, err)
	}
	if rcode != http.StatusOK || dcode != http.StatusOK {
		return nil, false, "", fmt.Errorf("job %d: router %d (%s), direct %d (%s)", i, rcode, rbody, dcode, dbody)
	}
	rn, rcached, err := normalize(rbody)
	if err != nil {
		return nil, false, "", err
	}
	dn, _, err := normalize(dbody)
	if err != nil {
		return nil, false, "", err
	}
	if !bytes.Equal(rn, dn) {
		return nil, false, "", fmt.Errorf("job %d: router response differs from direct solve\nrouter: %s\ndirect: %s", i, rn, dn)
	}
	return rn, rcached, member, nil
}

// pollEntries waits until every listed shard's live cache entry count
// matches expected (missing addresses expect zero), failing after timeout
// with the last observed state. Write-through and pruning are
// asynchronous, so entry counts are awaited, never assumed.
func (h *harness) pollEntries(addrs []string, expected map[string]int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last string
	for {
		ok := true
		var state []string
		for _, addr := range addrs {
			raw, err := h.scrapeRaw(addr)
			if err != nil {
				return err
			}
			if raw.Cache == nil {
				return fmt.Errorf("shard %s reports no cache block", addr)
			}
			if raw.Cache.Evictions != 0 {
				return fmt.Errorf("shard %s evicted %d entries; the smoke workload must fit its cache", addr, raw.Cache.Evictions)
			}
			state = append(state, fmt.Sprintf("%s=%d(want %d)", addr, raw.Cache.Entries, expected[addr]))
			if raw.Cache.Entries != int64(expected[addr]) {
				ok = false
			}
		}
		last = fmt.Sprint(state)
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cache entry counts never converged: %s", last)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// sumPruned totals the shards' pruned counters.
func (h *harness) sumPruned(addrs []string) (int64, error) {
	var total int64
	for _, addr := range addrs {
		raw, err := h.scrapeRaw(addr)
		if err != nil {
			return 0, err
		}
		if raw.Cache != nil {
			total += raw.Cache.Pruned
		}
	}
	return total, nil
}

// fleetStats fetches the router's fleet view.
func (h *harness) fleetStats() (*mmlp.FleetStats, error) {
	resp, err := h.hc.Get("http://" + h.routerAddr + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var fleet mmlp.FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		return nil, fmt.Errorf("router statsz: %w", err)
	}
	return &fleet, nil
}

// ringStatus fetches the router's GET /admin/ring view.
func (h *harness) ringStatus() (*mmlp.RingStatus, error) {
	resp, err := h.hc.Get("http://" + h.routerAddr + "/admin/ring")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st mmlp.RingStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("admin/ring: %w", err)
	}
	return &st, nil
}

// runReplicatedKill is the replicated-kill scenario: with -replication 2,
// warm a key set, wait until every key sits on exactly its two ring
// replicas, then SIGKILL the busiest shard in the middle of a streaming
// batch. The batch must complete with one bit-identical line per job and
// zero failures, and afterwards every warm key must be answered from a
// surviving replica's cache — proving the write-through copies are real
// and the handover loses no work.
func (h *harness) runReplicatedKill() error {
	if h.nShards < 2 {
		return fmt.Errorf("replicated-kill needs at least 2 shards, have %d", h.nShards)
	}
	if err := os.MkdirAll(h.logDir, 0o755); err != nil {
		return err
	}
	if err := h.boot(); err != nil {
		return err
	}
	ring, err := shard.New(h.shardAddrs, h.replicas)
	if err != nil {
		return err
	}
	h.ring = ring

	// Phase A: warm the fleet and record the direct reference bytes.
	warm := fastSet(h.seed+100, 10)
	warmKeys, err := keysOf(warm)
	if err != nil {
		return err
	}
	ref := make([][]byte, len(warm))
	for i := range warm {
		n, cached, _, err := h.solveBothNormalized(i, &warm[i])
		if err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
		if cached {
			return fmt.Errorf("warm job %d already cached on first contact", i)
		}
		ref[i] = n
	}

	// Every key must land on exactly its two ring replicas before the kill:
	// that is the write-through contract the survival below depends on.
	expect := map[string]int{}
	for _, k := range warmKeys {
		for _, m := range ring.Successors(k, h.replication) {
			expect[m]++
		}
	}
	if err := h.pollEntries(h.shardAddrs, expect, 30*time.Second); err != nil {
		return fmt.Errorf("write-through: %w", err)
	}
	fmt.Printf("replication: %d keys each cached on exactly %d replicas\n", len(warmKeys), h.replication)

	// Phase B: a batch of slow fresh jobs plus respelled warm duplicates;
	// the shard owning the most slow jobs dies after the second line.
	slow := slowSet(h.seed+200, 6)
	slowKeys, err := keysOf(slow)
	if err != nil {
		return err
	}
	ownerCount := make([]int, h.nShards)
	for _, k := range slowKeys {
		ownerCount[slices.Index(h.shardAddrs, ring.Owner(k))]++
	}
	victim := 0
	for i, c := range ownerCount {
		if c > ownerCount[victim] {
			victim = i
		}
	}
	victimAddr := h.shardAddrs[victim]

	all := slices.Clone(slow)
	for i := range warm {
		dup := warm[i]
		dup.Instance = gen.Permuted(warm[i].Instance)
		all = append(all, dup)
	}
	body, err := json.Marshal(mmlp.BatchRequest{Jobs: all})
	if err != nil {
		return err
	}
	routerItems, err := h.streamBatch(h.routerAddr, body, 2, func() error {
		return h.kill(fmt.Sprintf("shard%d", victim))
	})
	if err != nil {
		return fmt.Errorf("batch with mid-stream kill: %w", err)
	}
	directItems, err := h.streamBatch(h.directAddr, body, 0, nil)
	if err != nil {
		return fmt.Errorf("direct reference batch: %w", err)
	}
	if len(routerItems) != len(all) || len(directItems) != len(all) {
		return fmt.Errorf("batch line counts: router %d, direct %d, want %d", len(routerItems), len(directItems), len(all))
	}
	for i := 0; i < len(all); i++ {
		if !bytes.Equal(routerItems[i], directItems[i]) {
			return fmt.Errorf("batch index %d: router line differs from direct after the kill\nrouter: %s\ndirect: %s", i, routerItems[i], directItems[i])
		}
	}
	fmt.Printf("mid-batch kill of shard%d (%s): all %d lines bit-identical, zero failed jobs\n", victim, victimAddr, len(all))

	// Phase C: every warm key is still served — from cache — by a survivor.
	for i := range warm {
		dup := warm[i]
		dup.Instance = gen.Permuted(warm[i].Instance)
		code, rbody, hdr, err := h.post(h.routerAddr, "/v1/solve", mmlp.ContentTypeJSON, &dup, nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("post-kill solve %d: status %d, err %v (%s)", i, code, err, rbody)
		}
		member := hdr.Get("X-Mmlp-Shard")
		n, cached, err := normalize(rbody)
		if err != nil {
			return err
		}
		if member == victimAddr {
			return fmt.Errorf("post-kill solve %d reportedly served by the dead shard %s", i, victimAddr)
		}
		if !cached {
			return fmt.Errorf("post-kill solve %d recomputed: key %x not warm on any surviving replica", i, warmKeys[i][:4])
		}
		if !bytes.Equal(n, ref[i]) {
			return fmt.Errorf("post-kill solve %d differs from the pre-kill reference\ngot:  %s\nwant: %s", i, n, ref[i])
		}
	}
	fleet, err := h.fleetStats()
	if err != nil {
		return err
	}
	if fleet.Router.ShardDown == 0 {
		return fmt.Errorf("router never marked the killed shard down: %+v", fleet.Router)
	}
	if fleet.Router.Replicated == 0 {
		return fmt.Errorf("router reports zero write-through warms: %+v", fleet.Router)
	}
	fmt.Printf("survival: %d warm keys all answered cached by surviving replicas (shard_down=%d, replicated=%d)\n",
		len(warm), fleet.Router.ShardDown, fleet.Router.Replicated)
	return nil
}

// canonBatchResults posts a canon batch frame with the binary result
// encoding negotiated and returns the decoded records by index.
func (h *harness) canonBatchResults(addr string, frame []byte) (map[int]mmlp.BatchItem, error) {
	code, body, hdr, err := h.post(addr, "/v1/batch", mmlp.ContentTypeCanonBatch, frame,
		map[string]string{"Accept": mmlp.ContentTypeCanonResults})
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("canon batch via %s: status %d (%s)", addr, code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != mmlp.ContentTypeCanonResults {
		return nil, fmt.Errorf("canon batch via %s: Content-Type %q", addr, ct)
	}
	recs, err := canon.DecodeResults(body)
	if err != nil {
		return nil, fmt.Errorf("canon batch via %s: result frame did not decode: %w", addr, err)
	}
	items := map[int]mmlp.BatchItem{}
	for _, it := range recs {
		if it.Error != "" {
			return nil, fmt.Errorf("canon batch via %s: job %d failed: %s", addr, it.Index, it.Error)
		}
		if _, dup := items[it.Index]; dup {
			return nil, fmt.Errorf("canon batch via %s: index %d emitted twice", addr, it.Index)
		}
		items[it.Index] = it
	}
	return items, nil
}

// runMixed is the mixed-encoding scenario: the same problems arrive as
// JSON from one client and as canon wire payloads from another. The canon
// spelling of a JSON-warmed key must be answered from the same shard's
// cache (one cache line per problem across encodings — the ring routes
// canon jobs by hashing the payload bytes, which the injective encoding
// makes equal to the canonical key), every response must be bit-identical
// to the direct JSON reference, and the router must report the canon
// passthroughs it routed without decoding.
func (h *harness) runMixed() error {
	if err := os.MkdirAll(h.logDir, 0o755); err != nil {
		return err
	}
	if err := h.boot(); err != nil {
		return err
	}
	ring, err := shard.New(h.shardAddrs, h.replicas)
	if err != nil {
		return err
	}
	h.ring = ring
	reqs, dups, keys, err := h.workload()
	if err != nil {
		return err
	}

	// Canon payloads encode the PERMUTED duplicates: only the canonical
	// encoding makes a respelled problem hash to the warm key.
	payloads := make([][]byte, len(reqs))
	for i := range dups {
		job, err := batch.JobFromRequest(&dups[i])
		if err != nil {
			return fmt.Errorf("dup job %d invalid: %w", i, err)
		}
		payloads[i] = engine.EncodeCanon(job.In, job.Opts)
		if canon.HashBytes(payloads[i]) != keys[i] {
			return fmt.Errorf("job %d: canon payload hash differs from the canonical key — encodings diverged", i)
		}
	}

	// Phase A: the JSON client solves every distinct problem (warms the
	// fleet) with the usual bit-identity check against the direct server.
	ref := make([][]byte, len(reqs))
	for i := range reqs {
		n, cached, member, err := h.solveBothNormalized(i, &reqs[i])
		if err != nil {
			return fmt.Errorf("json pass: %w", err)
		}
		if cached {
			return fmt.Errorf("json job %d already cached on first contact", i)
		}
		if want := ring.Owner(keys[i]); member != want {
			return fmt.Errorf("json job %d served by %s, ring owner is %s", i, member, want)
		}
		ref[i] = n
	}

	// Phase B: the canon client sends the permuted duplicates as raw wire
	// payloads. Every one must hit the cache line its JSON spelling warmed,
	// on the same shard, and answer bit-identically.
	for i, payload := range payloads {
		code, rbody, hdr, err := h.post(h.routerAddr, "/v1/solve", mmlp.ContentTypeCanon, payload, nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("canon solve %d: status %d, err %v (%s)", i, code, err, rbody)
		}
		member := hdr.Get("X-Mmlp-Shard")
		if want := ring.Owner(keys[i]); member != want {
			return fmt.Errorf("canon solve %d served by %s, ring owner is %s", i, member, want)
		}
		n, cached, err := normalize(rbody)
		if err != nil {
			return err
		}
		if !cached {
			return fmt.Errorf("canon solve %d recomputed: the JSON-warmed cache line was not shared across encodings", i)
		}
		if !bytes.Equal(n, ref[i]) {
			return fmt.Errorf("canon solve %d differs from the JSON reference\ncanon: %s\njson:  %s", i, n, ref[i])
		}
	}
	fmt.Printf("mixed solve: %d canon payloads answered cached and bit-identical to their JSON spellings\n", len(payloads))

	// Phase C: the whole canon set again as one batch frame with the
	// binary result encoding; the merged records must match the reference.
	frame := canon.AppendBatch(nil, payloads)
	items, err := h.canonBatchResults(h.routerAddr, frame)
	if err != nil {
		return err
	}
	if len(items) != len(payloads) {
		return fmt.Errorf("canon batch: %d records, want %d", len(items), len(payloads))
	}
	for i := range payloads {
		it, ok := items[i]
		if !ok {
			return fmt.Errorf("canon batch: index %d missing", i)
		}
		if !it.Cached {
			return fmt.Errorf("canon batch job %d recomputed despite a warm fleet", i)
		}
		n, _, err := normalize(mustJSON(it.SolveResponse))
		if err != nil {
			return err
		}
		if !bytes.Equal(n, ref[i]) {
			return fmt.Errorf("canon batch job %d differs from the JSON reference\ncanon: %s\njson:  %s", i, n, ref[i])
		}
	}
	fmt.Printf("mixed batch: %d binary result records bit-identical to the JSON reference\n", len(items))

	// The canon traffic added no cache entries: one line per problem across
	// both encodings, each on the shard the ring assigns.
	if err := h.checkPartitioning(keys); err != nil {
		return fmt.Errorf("cross-encoding residency: %w", err)
	}

	// The router routed every canon job by hashing bytes, never decoding:
	// one count per solve payload plus one per batch payload.
	fleet, err := h.fleetStats()
	if err != nil {
		return err
	}
	if want := int64(2 * len(payloads)); fleet.Router.CanonPassthrough != want {
		return fmt.Errorf("router canon_passthrough = %d, want %d", fleet.Router.CanonPassthrough, want)
	}
	fmt.Printf("router: canon_passthrough=%d — every canon job routed without decoding\n", fleet.Router.CanonPassthrough)
	return h.checkConservation(h.shardAddrs)
}

// runCutover is the add-a-shard scenario: boot a spare mmlpserve off the
// ring, then propose the four-member ring through POST /admin/ring while a
// batch is streaming. The pinned batch drains bit-identically on the old
// assignment; after the drain the shards prune exactly the keys whose
// owner moved (all to the new member — the consistent-hashing guarantee),
// a re-drive recomputes exactly those and hits cache on the rest, and the
// fleet ends as a clean one-copy partition on the new ring.
func (h *harness) runCutover() error {
	if err := os.MkdirAll(h.logDir, 0o755); err != nil {
		return err
	}
	if err := h.boot(); err != nil {
		return err
	}
	oldRing, err := shard.New(h.shardAddrs, h.replicas)
	if err != nil {
		return err
	}
	h.ring = oldRing

	ports, err := freePorts(1)
	if err != nil {
		return err
	}
	spareAddr := fmt.Sprintf("127.0.0.1:%d", ports[0])
	if err := h.start("spare", "mmlpserve",
		"-addr", spareAddr, "-workers", fmt.Sprint(h.workers),
		"-cache-bytes", fmt.Sprint(16<<20)); err != nil {
		return err
	}
	if err := h.waitHealthy(spareAddr, 15*time.Second); err != nil {
		return err
	}
	newMembers := append(slices.Clone(h.shardAddrs), spareAddr)
	newRing, err := shard.New(newMembers, h.replicas)
	if err != nil {
		return err
	}

	// Phase 1: warm an initial key set on the old ring. Collect candidates
	// until at least two keys will move to the spare, so the remap below is
	// provably partial whatever the hash placement.
	var warm []mmlp.SolveRequest
	var warmKeys []canon.Key
	moved := 0
	for seed := h.seed + 300; len(warm) < 10 || moved < 2; seed++ {
		if seed > h.seed+10_000 {
			return fmt.Errorf("could not assemble a warm set with ≥2 moving keys")
		}
		req := fastSet(seed, 1)[0]
		k, err := keyFor(&req)
		if err != nil {
			return err
		}
		if newRing.Owner(k) != oldRing.Owner(k) {
			moved++
		}
		warm = append(warm, req)
		warmKeys = append(warmKeys, k)
	}
	ref := make([][]byte, len(warm))
	for i := range warm {
		n, _, _, err := h.solveBothNormalized(i, &warm[i])
		if err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
		ref[i] = n
	}

	// Phase 2: propose the new ring while a slow batch streams. The batch
	// was admitted before the flip, so it is pinned to — and must drain
	// on — the old assignment.
	slow := slowSet(h.seed+400, 6)
	slowKeys, err := keysOf(slow)
	if err != nil {
		return err
	}
	body, err := json.Marshal(mmlp.BatchRequest{Jobs: slow})
	if err != nil {
		return err
	}
	var accepted mmlp.RingStatus
	routerItems, err := h.streamBatch(h.routerAddr, body, 2, func() error {
		prop := &mmlp.RingProposal{Members: newMembers}
		code, rbody, _, err := h.post(h.routerAddr, "/admin/ring", mmlp.ContentTypeJSON, prop, nil)
		if err != nil {
			return fmt.Errorf("propose ring: %w", err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("propose ring: status %d", code)
		}
		if err := json.Unmarshal(rbody, &accepted); err != nil {
			return err
		}
		// A second proposal while the first still drains must be refused
		// with 409 and tell the operator when to retry: the pinned batch is
		// still streaming, so the drain is provably in progress right now.
		code, _, hdr, err := h.post(h.routerAddr, "/admin/ring", mmlp.ContentTypeJSON, prop, nil)
		if err != nil {
			return fmt.Errorf("second propose: %w", err)
		}
		if code != http.StatusConflict {
			return fmt.Errorf("second proposal during the drain: status %d, want 409", code)
		}
		if secs, aerr := strconv.Atoi(hdr.Get("Retry-After")); aerr != nil || secs < 1 {
			return fmt.Errorf("409 during the drain carried Retry-After %q, want a positive second count", hdr.Get("Retry-After"))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("batch with mid-stream cutover: %w", err)
	}
	directItems, err := h.streamBatch(h.directAddr, body, 0, nil)
	if err != nil {
		return fmt.Errorf("direct reference batch: %w", err)
	}
	if len(routerItems) != len(slow) || len(directItems) != len(slow) {
		return fmt.Errorf("batch line counts: router %d, direct %d, want %d", len(routerItems), len(directItems), len(slow))
	}
	slowRef := make([][]byte, len(slow))
	for i := range slow {
		if !bytes.Equal(routerItems[i], directItems[i]) {
			return fmt.Errorf("batch index %d: router line differs from direct across the cutover\nrouter: %s\ndirect: %s", i, routerItems[i], directItems[i])
		}
		slowRef[i] = routerItems[i]
	}
	if accepted.Version != 2 {
		return fmt.Errorf("proposal accepted as version %d, want 2 (%+v)", accepted.Version, accepted)
	}
	if accepted.Draining == nil || accepted.Draining.FromVersion != 1 || accepted.Draining.Inflight < 1 {
		return fmt.Errorf("proposal during a streaming batch reported no drain: %+v", accepted.Draining)
	}
	fmt.Printf("cutover proposed mid-batch: version 1→2 with %d request(s) draining; batch stayed bit-identical\n", accepted.Draining.Inflight)

	// Phase 3: the drain completes once the pinned batch finishes.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := h.ringStatus()
		if err != nil {
			return err
		}
		if st.Version == 2 && st.Draining == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cutover never finished draining: %+v", st)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Phase 4: shards prune exactly the keys whose owner moved. Adding a
	// member only ever reassigns keys TO it, so the expected count is
	// computable from the two rings alone.
	allKeys := append(slices.Clone(warmKeys), slowKeys...)
	movedTotal := 0
	for _, k := range allKeys {
		if newRing.Owner(k) != oldRing.Owner(k) {
			if newRing.Owner(k) != spareAddr {
				return fmt.Errorf("key %x moved between old members — consistent hashing broke", k[:4])
			}
			movedTotal++
		}
	}
	if movedTotal < 1 || movedTotal >= len(allKeys) {
		return fmt.Errorf("remap moved %d of %d keys; want a strict partial remap", movedTotal, len(allKeys))
	}
	allAddrs := append(slices.Clone(h.shardAddrs), spareAddr)
	deadline = time.Now().Add(30 * time.Second)
	for {
		pruned, err := h.sumPruned(allAddrs)
		if err != nil {
			return err
		}
		if pruned == int64(movedTotal) {
			break
		}
		if pruned > int64(movedTotal) {
			return fmt.Errorf("shards pruned %d entries, more than the %d moved keys", pruned, movedTotal)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shards pruned %d entries, want the %d moved keys", pruned, movedTotal)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("handover: %d of %d keys moved to the new member and were pruned from their old owners\n", movedTotal, len(allKeys))

	// Phase 5: re-drive every key as a permuted duplicate on the new ring.
	// Exactly the moved keys recompute (their new owner is cold); the rest
	// hit the caches the prune left intact.
	allReqs := append(slices.Clone(warm), slow...)
	allRef := append(slices.Clone(ref), slowRef...)
	recomputed := 0
	for i := range allReqs {
		dup := allReqs[i]
		dup.Instance = gen.Permuted(allReqs[i].Instance)
		code, rbody, hdr, err := h.post(h.routerAddr, "/v1/solve", mmlp.ContentTypeJSON, &dup, nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("re-drive %d: status %d, err %v (%s)", i, code, err, rbody)
		}
		member := hdr.Get("X-Mmlp-Shard")
		n, cached, err := normalize(rbody)
		if err != nil {
			return err
		}
		if want := newRing.Owner(allKeys[i]); member != want {
			return fmt.Errorf("re-drive %d served by %s, new ring owner is %s", i, member, want)
		}
		keyMoved := newRing.Owner(allKeys[i]) != oldRing.Owner(allKeys[i])
		if cached == keyMoved {
			return fmt.Errorf("re-drive %d: cached=%v but key moved=%v — stale copy or lost cache", i, cached, keyMoved)
		}
		if !cached {
			recomputed++
		}
		if !bytes.Equal(n, allRef[i]) {
			return fmt.Errorf("re-drive %d differs from the pre-cutover reference\ngot:  %s\nwant: %s", i, n, allRef[i])
		}
	}
	if recomputed != movedTotal {
		return fmt.Errorf("re-drive recomputed %d keys, want exactly the %d moved ones", recomputed, movedTotal)
	}

	// Phase 6: the fleet is a clean one-copy partition on the new ring — no
	// duplicate entries survived the handover.
	expected := map[string]int{}
	for _, k := range allKeys {
		expected[newRing.Owner(k)]++
	}
	if err := h.pollEntries(allAddrs, expected, 10*time.Second); err != nil {
		return fmt.Errorf("post-cutover partition: %w", err)
	}
	fmt.Printf("post-cutover partition: %d distinct keys occupy exactly one shard each on the 4-member ring\n", len(allKeys))
	// Conservation across the cutover: the spare's jobs count toward the
	// shard sum once it joins the ring.
	return h.checkConservation(allAddrs)
}
