package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/canon"
	"repro/internal/engine"
	"repro/internal/httperr"
	"repro/internal/mmlp"
	"repro/internal/obs"
	"repro/internal/shard"
)

// statszTimeout bounds the per-shard /statsz scrape of the fleet view.
const statszTimeout = 2 * time.Second

// replicateTimeout bounds one background write-through or cutover
// notification. Generous because a warm-up POST computes the solve on the
// backup replica; it exists so a hung shard cannot pin the goroutine
// forever.
const replicateTimeout = 2 * time.Minute

// router terminates the serving API and forwards every job to the shard
// that owns its canonical key. It holds no solver state of its own: the
// shards' local result caches, partitioned by the ring, are the fleet's
// only cache.
type router struct {
	client  *shard.Client
	maxBody int64
	mux     *http.ServeMux
	// handler is mux wrapped in the error-envelope layer, so the mux's own
	// 404/405 fallbacks speak the unified JSON envelope too.
	handler http.Handler

	// replicated counts write-through warms delivered to backup replicas;
	// replWG tracks the background goroutines doing them (and cutover
	// notifications), so tests and shutdown can wait for quiescence.
	replicated atomic.Int64
	replWG     sync.WaitGroup

	// canonPassthrough counts canon payloads routed by hashing the raw
	// bytes — the router never decodes them. One increment per payload, so
	// a canon batch of n jobs adds n.
	canonPassthrough atomic.Int64

	// defaultDeadline, when positive, is the deadline minted for requests
	// that arrive without an X-Mmlp-Deadline-Ms header, so every shard hop
	// carries a bound even when the client never set one. Zero preserves
	// the classic unbounded behaviour.
	defaultDeadline time.Duration
}

// newRouter wires the endpoints over a shard client.
func newRouter(client *shard.Client, maxBody int64) *router {
	rt := &router{client: client, maxBody: maxBody, mux: http.NewServeMux()}
	rt.mux.HandleFunc("POST /v1/solve", rt.handleSolve)
	rt.mux.HandleFunc("POST /v1/delta", rt.handleDelta)
	rt.mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	rt.mux.HandleFunc("GET /v1/capabilities", rt.handleCapabilities)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /statsz", rt.handleStats)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /admin/ring", rt.handleRingGet)
	rt.mux.HandleFunc("POST /admin/ring", rt.handleRingPost)
	rt.handler = httperr.Envelope(rt.mux)
	return rt
}

func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.handler.ServeHTTP(w, r) }

// setDefaultDeadline arms -default-deadline. Call before serving.
func (rt *router) setDefaultDeadline(d time.Duration) { rt.defaultDeadline = d }

// keyOf computes the canonical routing key of one validated request: the
// same canon.Key the owning shard's result cache will index the result
// under, so syntactic respellings of one problem (rows or terms permuted)
// all land on the same shard.
func keyOf(req *mmlp.SolveRequest) (canon.Key, error) {
	job, err := batch.JobFromRequest(req)
	if err != nil {
		return canon.Key{}, err
	}
	return engine.SolveKey(job.In, job.Opts), nil
}

// traceFor adopts the client's X-Mmlp-Trace request ID or mints one, echoes
// it on the response, and stashes it in a child of ctx (normally the
// deadline-bearing context from obs.DeadlineContext) so Forward attaches it to
// every hop to the shards. The router is where fleet requests are born, so
// every solve ends up with exactly one ID shared by the client, the
// router, and the owning shard's trace and slow-log.
func traceFor(ctx context.Context, w http.ResponseWriter, r *http.Request) (context.Context, string) {
	id := r.Header.Get(obs.TraceHeader)
	if id == "" {
		id = obs.NewTraceID()
	}
	w.Header().Set(obs.TraceHeader, id)
	return obs.WithTraceID(ctx, id), id
}

// handleSolve routes one solve to its owning shard and streams the shard's
// response back verbatim: success bodies are byte-identical to what a
// direct client of that shard would have received. A canon request
// (Content-Type application/x-mmlp-canon) is routed by hashing the raw
// payload — the canon encoding is injective over canonical instances, so
// the hash of the bytes IS the cache key the shard will use, and the
// router never decodes the body.
func (rt *router) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, code, err := httperr.ReadBody(w, r, rt.maxBody)
	if err != nil {
		httperr.Write(w, code, httperr.CodeForStatus(code), err)
		return
	}
	contentType := httperr.MediaType(r)
	var key canon.Key
	if contentType == mmlp.ContentTypeCanon {
		if !canon.SniffSolve(body) {
			httperr.Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, fmt.Errorf("canon body does not start with %q", canon.SolveMagic))
			return
		}
		key = canon.HashBytes(body)
		rt.canonPassthrough.Add(1)
	} else {
		contentType = "application/json"
		var req mmlp.SolveRequest
		if err := json.Unmarshal(body, &req); err != nil {
			httperr.Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, fmt.Errorf("malformed JSON: %w", err))
			return
		}
		if key, err = keyOf(&req); err != nil {
			httperr.Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, err)
			return
		}
	}
	rt.routeByKey(w, r, key, "/v1/solve", contentType, body, true)
}

// handleDelta routes an incremental re-solve to the shard that owns its
// BASE key — the only shard whose result cache can hold the base record
// the delta prices against. The body is relayed verbatim; a shard
// answering 404/base_unknown is relayed as-is and NOT marked down (a cold
// cache is a correct answer, not a failure), so the client can fall back
// to a full solve, which also seeds the base for the next delta. No
// write-through happens for deltas: backups lack the base record, and a
// warm that recomputes from scratch would defeat the point.
func (rt *router) handleDelta(w http.ResponseWriter, r *http.Request) {
	body, code, err := httperr.ReadBody(w, r, rt.maxBody)
	if err != nil {
		httperr.Write(w, code, httperr.CodeForStatus(code), err)
		return
	}
	var req mmlp.DeltaRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httperr.Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, fmt.Errorf("malformed JSON: %w", err))
		return
	}
	job, err := batch.JobFromDelta(&req)
	if err != nil {
		httperr.Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, err)
		return
	}
	rt.routeByKey(w, r, job.Delta.Base, "/v1/delta", "application/json", body, false)
}

// routeByKey forwards one request to key's owning shard and streams the
// response back verbatim: success bodies are byte-identical to what a
// direct client of that shard would have received. With writeThrough,
// a 200 also warms the key's backup replicas in the background.
func (rt *router) routeByKey(w http.ResponseWriter, r *http.Request, key canon.Key, path, contentType string, body []byte, writeThrough bool) {
	ctx, cancel, err := obs.DeadlineContext(r, rt.defaultDeadline)
	if err != nil {
		httperr.Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, err)
		return
	}
	if cancel != nil {
		defer cancel()
	}
	ctx, _ = traceFor(ctx, w, r)
	// Propagate the query string so ?trace=1 reaches the owning shard and
	// its per-stage trace block rides back in the relayed response; warms
	// reuse the bare path so a trace request does not trace its backups.
	warmPath := path
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	rv := rt.client.Acquire()
	defer rt.client.Release(rv)
	owner := rt.client.OwnerOn(rv, key)
	resp, member, err := rt.client.DoOn(ctx, rv, key, path, contentType, body)
	if err != nil {
		// A dry retry budget is the router refusing to spend more hops, not
		// the fleet being unreachable: 503 tells the client to back off and
		// retry, where 502 would read as an outage.
		status, code := http.StatusBadGateway, mmlp.ErrCodeBadGateway
		if errors.Is(err, shard.ErrRetryBudgetExhausted) {
			status, code = http.StatusServiceUnavailable, mmlp.ErrCodeUnavailable
		}
		httperr.Write(w, status, code, fmt.Errorf("no shard reachable (owner %s): %w", owner, err))
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	// Relay the shard's retry hint so a shed (429) or overloaded answer
	// keeps its Retry-After through the extra hop.
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Mmlp-Shard", member)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	if writeThrough && resp.StatusCode == http.StatusOK {
		for _, m := range rt.backupsFor(rv, key, member) {
			rt.replicate(m, warmPath, contentType, body)
		}
	}
}

// handleCapabilities advertises the router's serving surface — the same
// shape mmlpserve serves, so clients can feature-detect uniformly at
// either tier.
func (rt *router) handleCapabilities(w http.ResponseWriter, _ *http.Request) {
	caps := mmlp.Capabilities{
		Service: "mmlprouter",
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
		MaxBodyBytes:    rt.maxBody,
		Delta:           true,
		Replication:     rt.client.Replication(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(caps)
}

// backupsFor lists the members of k's replica set other than answered —
// the shards write-through should warm so any replica can serve k after
// the primary dies. Empty with Replication 1: single-copy semantics are
// unchanged.
func (rt *router) backupsFor(rv *shard.RingVersion, k canon.Key, answered string) []string {
	if rt.client.Replication() <= 1 {
		return nil
	}
	set := rt.client.ReplicaSet(rv, k)
	backups := make([]string, 0, len(set))
	for _, m := range set {
		if m != answered {
			backups = append(backups, m)
		}
	}
	return backups
}

// replicate POSTs body to one backup replica in the background, warming
// its cache so the replica can answer the key without a recompute once
// the primary is gone. Members inside a cooldown window are skipped — the
// warm is an optimisation, not a delivery guarantee, and the next
// write-through after recovery re-warms them.
func (rt *router) replicate(member, path, contentType string, body []byte) {
	if rt.client.Down(member) {
		return
	}
	rt.replWG.Add(1)
	go func() {
		defer rt.replWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), replicateTimeout)
		defer cancel()
		resp, err := rt.client.Forward(ctx, member, path, contentType, body)
		if err != nil {
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rt.replicated.Add(1)
	}()
}

// group is the slice of one batch owned by a single shard. Exactly one of
// jobs (JSON batch) or payloads (canon batch) is populated.
type group struct {
	owner    string
	key      canon.Key // a representative key, seeds the failover replica walk
	jobs     []mmlp.SolveRequest
	payloads [][]byte
	orig     []int // original indices, parallel to jobs/payloads
}

// handleBatch validates the batch, fans the jobs out to their owning
// shards as per-shard sub-batches, and re-merges the shards' NDJSON
// streams in arrival order, rewriting each record's index back to the
// job's position in the original request. The per-job contract matches
// mmlpserve's: exactly one record per job, whatever happens to the fleet.
// A canon batch frame (Content-Type application/x-mmlp-canon-batch) is
// split at frame boundaries only: each payload is routed by its hash and
// re-framed per shard with the bytes forwarded verbatim, never decoded.
// Accept: application/x-mmlp-canon-results selects the binary result
// frame for the merged response under either request encoding.
func (rt *router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, code, err := httperr.ReadBody(w, r, rt.maxBody)
	if err != nil {
		httperr.Write(w, code, httperr.CodeForStatus(code), err)
		return
	}
	var req mmlp.BatchRequest
	var payloads [][]byte
	var n int
	if httperr.MediaType(r) == mmlp.ContentTypeCanonBatch {
		if payloads, err = canon.SplitBatch(body); err != nil {
			httperr.Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, fmt.Errorf("malformed batch frame: %w", err))
			return
		}
		n = len(payloads)
	} else {
		if err := json.Unmarshal(body, &req); err != nil {
			httperr.Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, fmt.Errorf("malformed JSON: %w", err))
			return
		}
		n = len(req.Jobs)
	}
	if n == 0 {
		httperr.Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, errors.New("batch has no jobs"))
		return
	}
	// Validate everything before emitting the first byte, matching the
	// all-or-nothing 400 a single shard gives a malformed batch. Canon
	// payloads need no per-job validation pass here: the frame split
	// checked each payload's magic, and deeper decode errors are the
	// owning shard's per-job verdict.
	keys := make([]canon.Key, n)
	for i := range keys {
		if payloads != nil {
			keys[i] = canon.HashBytes(payloads[i])
			continue
		}
		key, err := keyOf(&req.Jobs[i])
		if err != nil {
			httperr.Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, fmt.Errorf("job %d: %w", i, err))
			return
		}
		keys[i] = key
	}
	if payloads != nil {
		rt.canonPassthrough.Add(int64(n))
	}
	ctx, cancel, err := obs.DeadlineContext(r, rt.defaultDeadline)
	if err != nil {
		httperr.Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, err)
		return
	}
	if cancel != nil {
		defer cancel()
	}
	ctx, _ = traceFor(ctx, w, r)
	// Pin one ring generation for the whole batch: grouping, forwarding and
	// straggler re-forwards all agree on a single assignment even when an
	// /admin/ring cutover lands mid-stream.
	rv := rt.client.Acquire()
	defer rt.client.Release(rv)
	groups := map[string]*group{}
	for i := 0; i < n; i++ {
		owner := rt.client.OwnerOn(rv, keys[i])
		g := groups[owner]
		if g == nil {
			g = &group{owner: owner, key: keys[i]}
			groups[owner] = g
		}
		if payloads != nil {
			g.payloads = append(g.payloads, payloads[i])
		} else {
			g.jobs = append(g.jobs, req.Jobs[i])
		}
		g.orig = append(g.orig, i)
	}

	flusher, _ := w.(http.Flusher)
	var emu sync.Mutex
	answered := make([]string, n) // member that solved each job
	var write func(mmlp.BatchItem)
	if strings.Contains(r.Header.Get("Accept"), mmlp.ContentTypeCanonResults) {
		w.Header().Set("Content-Type", mmlp.ContentTypeCanonResults)
		w.Write(canon.AppendResultsHeader(nil))
		var buf []byte
		write = func(item mmlp.BatchItem) {
			buf = canon.AppendResult(buf[:0], &item)
			w.Write(buf)
		}
	} else {
		w.Header().Set("Content-Type", mmlp.ContentTypeNDJSON)
		enc := json.NewEncoder(w)
		write = func(item mmlp.BatchItem) { enc.Encode(item) }
	}
	emit := func(item mmlp.BatchItem, member string) {
		emu.Lock()
		defer emu.Unlock()
		if item.Error == "" && item.Index >= 0 && item.Index < len(answered) {
			answered[item.Index] = member
		}
		write(item)
		if flusher != nil {
			flusher.Flush()
		}
	}

	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			rt.forwardGroup(ctx, rv, g, emit)
		}(g)
	}
	wg.Wait()

	// Write-through: regroup the answered jobs by backup replica and warm
	// each replica with one background sub-batch, so any member of a key's
	// replica set can serve it cached after the primary dies. Canon warms
	// re-frame the original payload bytes.
	if rt.client.Replication() > 1 {
		if payloads != nil {
			backups := map[string][][]byte{}
			for i := 0; i < n; i++ {
				if answered[i] == "" {
					continue
				}
				for _, m := range rt.backupsFor(rv, keys[i], answered[i]) {
					backups[m] = append(backups[m], payloads[i])
				}
			}
			for m, ps := range backups {
				rt.replicate(m, "/v1/batch", mmlp.ContentTypeCanonBatch, canon.AppendBatch(nil, ps))
			}
		} else {
			backups := map[string][]mmlp.SolveRequest{}
			for i := 0; i < n; i++ {
				if answered[i] == "" {
					continue
				}
				for _, m := range rt.backupsFor(rv, keys[i], answered[i]) {
					backups[m] = append(backups[m], req.Jobs[i])
				}
			}
			for m, jobs := range backups {
				if body, err := json.Marshal(mmlp.BatchRequest{Jobs: jobs}); err == nil {
					rt.replicate(m, "/v1/batch", "application/json", body)
				}
			}
		}
	}
}

// forwardGroup sends one shard's slice of the batch and streams its lines
// back through emit. A transport failure advances to the next replica on
// the ring with the jobs not yet answered; jobs that no member could
// answer get error lines, honouring the one-line-per-job contract. emit
// receives the member that produced each line ("" for router-synthesised
// error lines), which feeds the write-through regrouping. Shards always
// answer sub-batches as NDJSON regardless of the request encoding, so the
// merge loop below is one code path.
func (rt *router) forwardGroup(ctx context.Context, rv *shard.RingVersion, g *group, emit func(mmlp.BatchItem, string)) {
	jobs, payloads, orig := g.jobs, g.payloads, g.orig
	contentType := "application/json"
	if payloads != nil {
		contentType = mmlp.ContentTypeCanonBatch
	}
	size := func() int {
		if payloads != nil {
			return len(payloads)
		}
		return len(jobs)
	}
	var body []byte // re-marshaled only when the remaining job set shrinks
	err := rt.client.DoFuncOn(ctx, rv, g.key, func(member string) (bool, error) {
		if body == nil {
			if payloads != nil {
				body = canon.AppendBatch(nil, payloads)
			} else {
				var merr error
				if body, merr = json.Marshal(mmlp.BatchRequest{Jobs: jobs}); merr != nil {
					return true, merr // cannot improve on another replica
				}
			}
		}
		resp, ferr := rt.client.Forward(ctx, member, "/v1/batch", contentType, body)
		if ferr != nil {
			return false, ferr // nothing processed; try the next replica
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			// The shard processed and rejected the sub-batch (e.g. shutting
			// down); its verdict stands for every job in it.
			var eresp mmlp.ErrorResponse
			json.NewDecoder(resp.Body).Decode(&eresp)
			msg := eresp.Error.Message
			if msg == "" {
				msg = fmt.Sprintf("shard %s: status %d", member, resp.StatusCode)
			}
			for _, oi := range orig {
				emit(mmlp.BatchItem{Index: oi, Error: msg}, member)
			}
			return true, nil
		}
		emitted := make([]bool, size())
		nEmitted := 0
		rd := bufio.NewReader(resp.Body)
		for {
			line, rerr := rd.ReadBytes('\n')
			if len(line) > 1 {
				var item mmlp.BatchItem
				if jerr := json.Unmarshal(line, &item); jerr == nil &&
					item.Index >= 0 && item.Index < len(emitted) && !emitted[item.Index] {
					sub := item.Index
					item.Index = orig[sub]
					emitted[sub] = true
					nEmitted++
					emit(item, member)
				}
			}
			if rerr != nil {
				break
			}
		}
		if nEmitted == size() {
			return true, nil
		}
		// The stream broke mid-way: keep the answered jobs, re-forward the
		// rest. Solves are pure functions of their requests, so re-running
		// an answered-but-lost job on another shard is safe.
		var njobs []mmlp.SolveRequest
		var npayloads [][]byte
		var norig []int
		for i := range emitted {
			if !emitted[i] {
				if payloads != nil {
					npayloads = append(npayloads, payloads[i])
				} else {
					njobs = append(njobs, jobs[i])
				}
				norig = append(norig, i)
			}
		}
		// Remap norig through the current orig before replacing it.
		for i, oi := range norig {
			norig[i] = orig[oi]
		}
		jobs, payloads, orig, body = njobs, npayloads, norig, nil
		return false, fmt.Errorf("shard %s: response stream truncated after %d lines", member, nEmitted)
	})
	if err != nil {
		for _, oi := range orig {
			emit(mmlp.BatchItem{Index: oi, Error: fmt.Sprintf("no shard reachable: %v", err)}, "")
		}
	}
}

// ringStatus snapshots the topology for the admin surface.
func (rt *router) ringStatus() mmlp.RingStatus {
	st := mmlp.RingStatus{
		Version:     rt.client.Version(),
		Members:     rt.client.Ring().Members(),
		Replication: rt.client.Replication(),
	}
	if cut := rt.client.Draining(); cut != nil {
		st.Draining = &mmlp.DrainStatus{
			FromVersion: cut.From,
			FromMembers: cut.FromMembers,
			Inflight:    cut.Draining,
		}
	}
	return st
}

// handleRingGet reports the current ring generation and, while a cutover
// drains, the old generation's remaining in-flight count. Operators poll
// it after a proposal to know when the handover has completed.
func (rt *router) handleRingGet(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rt.ringStatus())
}

// handleRingPost proposes a new member set. On acceptance the new ring
// routes all subsequently admitted requests immediately; requests already
// pinned to the old generation drain on the old assignment, and when the
// last one finishes the router tells every affected shard to prune the
// cache entries it no longer owns. A proposal while a previous cutover is
// still draining is rejected with 409 — retry once GET /admin/ring shows
// no drain.
func (rt *router) handleRingPost(w http.ResponseWriter, r *http.Request) {
	body, code, err := httperr.ReadBody(w, r, rt.maxBody)
	if err != nil {
		httperr.Write(w, code, httperr.CodeForStatus(code), err)
		return
	}
	var prop mmlp.RingProposal
	if err := json.Unmarshal(body, &prop); err != nil {
		httperr.Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, fmt.Errorf("malformed JSON: %w", err))
		return
	}
	if _, err := rt.client.Propose(prop.Members); err != nil {
		if errors.Is(err, shard.ErrCutoverInProgress) {
			// Hint when to retry from the drain's progress: roughly a second
			// per in-flight request still pinned to the old ring, clamped so
			// a long drain never suggests an unbounded wait.
			secs := int64(1)
			if cut := rt.client.Draining(); cut != nil && cut.Draining > secs {
				secs = cut.Draining
			}
			if secs > 30 {
				secs = 30
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			httperr.Write(w, http.StatusConflict, mmlp.ErrCodeConflict, err)
		} else {
			httperr.Write(w, http.StatusBadRequest, mmlp.ErrCodeInvalidArgument, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rt.ringStatus())
}

// notifyCutover is the client's OnCutoverDone hook: once the old ring has
// drained, every member of either generation is told the new assignment so
// it can prune cache entries it no longer holds under the new ring. A
// member leaving the fleet gets an update whose member set excludes it and
// prunes everything. Delivery is best-effort: pruning only reclaims
// memory, and a shard that misses the update merely holds dead entries
// until its LRU evicts them.
func (rt *router) notifyCutover(old, new *shard.Ring) {
	union := map[string]bool{}
	for _, m := range old.Members() {
		union[m] = true
	}
	for _, m := range new.Members() {
		union[m] = true
	}
	upd := mmlp.ShardRingUpdate{
		Members:     new.Members(),
		Replicas:    new.Replicas(),
		Replication: rt.client.Replication(),
	}
	for m := range union {
		upd.Self = m
		body, err := json.Marshal(upd)
		if err != nil {
			continue
		}
		rt.replWG.Add(1)
		go func(m string, body []byte) {
			defer rt.replWG.Done()
			ctx, cancel := context.WithTimeout(context.Background(), replicateTimeout)
			defer cancel()
			resp, err := rt.client.Forward(ctx, m, "/admin/ring", "application/json", body)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(m, body)
	}
}

// handleHealth reports router liveness, the fleet's health split, and the
// build identity, so an operator can tell which revision a node runs
// without shelling into it.
func (rt *router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	rev, dirty := obs.BuildInfo()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"shards\":%d,\"healthy\":%d,\"revision\":%q,\"dirty\":%v}\n",
		len(rt.client.Ring().Members()), len(rt.client.Healthy()), rev, dirty)
}

// handleStats scrapes every shard's /statsz?raw=1 in parallel and serves
// the fleet view: router counters, the summed fleet aggregate, and the
// per-shard blocks it was computed from. Because the ring stores each key
// on exactly one shard, the fleet's cache "entries" total counts distinct
// canonical keys cached across the whole fleet.
func (rt *router) handleStats(w http.ResponseWriter, r *http.Request) {
	members := rt.client.Ring().Members()
	out := mmlp.FleetStats{Shards: make([]mmlp.ShardStats, len(members))}

	ctx, cancel := context.WithTimeout(r.Context(), statszTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m string) {
			defer wg.Done()
			ss := mmlp.ShardStats{Addr: m}
			resp, err := rt.client.Get(ctx, m, "/statsz?raw=1")
			if err == nil {
				defer resp.Body.Close()
				var raw mmlp.StatsRaw
				if resp.StatusCode == http.StatusOK {
					err = json.NewDecoder(resp.Body).Decode(&raw)
				} else {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
				if err == nil {
					ss.OK, ss.Stats = true, &raw
				}
			}
			if err != nil {
				ss.Error = err.Error()
			}
			out.Shards[i] = ss
		}(i, m)
	}
	wg.Wait()

	for _, ss := range out.Shards {
		if ss.OK {
			out.Fleet.Add(ss.Stats)
		}
	}
	// Fleet quantiles come from the merged histogram — per-shard P50/P99
	// are process-local order statistics and cannot be combined.
	out.Fleet.DeriveQuantiles()
	out.Router = rt.stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// stats snapshots the router block: the shard client's routing view plus
// the router's own write-through and passthrough counters.
func (rt *router) stats() mmlp.RouterStats {
	st := rt.client.Stats()
	st.Replicated = rt.replicated.Load()
	st.CanonPassthrough = rt.canonPassthrough.Load()
	return st
}
