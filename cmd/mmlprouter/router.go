package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/canon"
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
	// handler is the endpoint mux behind the shared front: the error
	// envelope (which the mux's own 404/405 fallbacks speak too) and the
	// X-Mmlp-Trace adoption, minting and echo on every /v1/ request.
	handler http.Handler

	// replicated counts write-through warms delivered to backup replicas;
	// replWG tracks the background goroutines doing them (and cutover
	// notifications), so tests and shutdown can wait for quiescence.
	replicated atomic.Int64
	replWG     sync.WaitGroup

	// canonPassthrough counts canon payloads routed by hashing the raw
	// bytes — the router never decodes them. One increment per forwarded
	// payload, so a canon batch of n jobs adds n; a request rejected before
	// forwarding adds nothing.
	canonPassthrough atomic.Int64

	// defaultDeadline, when positive, is the deadline minted for requests
	// that arrive without an X-Mmlp-Deadline-Ms header, so every shard hop
	// carries a bound even when the client never set one. Zero preserves
	// the classic unbounded behaviour.
	defaultDeadline time.Duration
}

// newRouter wires the endpoints over a shard client.
func newRouter(client *shard.Client, maxBody int64) *router {
	rt := &router{client: client, maxBody: maxBody}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", rt.route(httperr.DecodeSolve))
	mux.HandleFunc("POST /v1/delta", rt.route(httperr.DecodeDelta))
	mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	mux.HandleFunc("GET /v1/capabilities", rt.handleCapabilities)
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /statsz", rt.handleStats)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /admin/ring", rt.handleRingGet)
	mux.HandleFunc("POST /admin/ring", rt.handleRingPost)
	rt.handler = httperr.Envelope(httperr.Trace(mux, true))
	return rt
}

func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.handler.ServeHTTP(w, r) }

// setDefaultDeadline arms -default-deadline. Call before serving.
func (rt *router) setDefaultDeadline(d time.Duration) { rt.defaultDeadline = d }

// route serves one routed request, /v1/solve or /v1/delta; the two differ
// only in decode. The request is forwarded to the shard owning its route
// key (httperr.RouteKey) and the shard's response streams back verbatim:
// bodies are byte-identical to what a direct client of that shard would
// have received, and X-Mmlp-Shard names the shard. A canon solve is routed
// by hashing the raw payload — the canon encoding is injective over
// canonical instances, so the hash of the bytes IS the cache key the shard
// will use, and the router never decodes the body. A delta routes by its
// BASE key, the only shard whose result cache can hold the base record; a
// 404/base_unknown answer is relayed as-is and does NOT mark the shard
// down (a cold cache is a correct answer, not a failure), so the client
// can fall back to a full solve. A solve answered 200 also warms the key's
// backup replicas in the background; a delta never does: backups lack the
// base record, and a warm that recomputes from scratch would defeat the
// point.
func (rt *router) route(decode func(http.ResponseWriter, *http.Request, int64) (batch.Job, []byte, int, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job, body, status, err := decode(w, r, rt.maxBody)
		if err != nil {
			httperr.Write(w, status, httperr.CodeForStatus(status), err)
			return
		}
		ctx, cancel, ok := httperr.Deadline(w, r, rt.defaultDeadline)
		if !ok {
			return
		}
		defer cancel()
		key := httperr.RouteKey(job)
		contentType := mmlp.ContentTypeJSON
		if job.Canon != nil {
			contentType = mmlp.ContentTypeCanon
			rt.canonPassthrough.Add(1)
		}
		// Propagate the query string so ?trace=1 reaches the owning shard and
		// its per-stage trace block rides back in the relayed response; warms
		// use the bare path so a trace request does not trace its backups.
		path := r.URL.Path
		if r.URL.RawQuery != "" {
			path += "?" + r.URL.RawQuery
		}
		rv := rt.client.Acquire()
		defer rt.client.Release(rv)
		owner := rt.client.OwnerOn(rv, key)
		resp, member, err := rt.client.DoOn(ctx, rv, key, path, contentType, body)
		if err != nil {
			// A dry retry budget is the router refusing to spend more hops,
			// not the fleet being unreachable: 503 tells the client to back
			// off and retry, where 502 would read as an outage.
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
		if job.Delta == nil && resp.StatusCode == http.StatusOK {
			for _, m := range rt.backupsFor(rv, key, member) {
				rt.replicate(m, r.URL.Path, contentType, body)
			}
		}
	}
}

// handleCapabilities advertises the router's serving surface — the same
// shape mmlpserve serves, so clients can feature-detect uniformly at
// either tier.
func (rt *router) handleCapabilities(w http.ResponseWriter, _ *http.Request) {
	caps := httperr.Capabilities("mmlprouter", rt.maxBody, true)
	caps.Replication = rt.client.Replication()
	httperr.WriteJSON(w, caps)
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

// replicate warms one backup replica's cache with body in the background,
// so the replica can answer the key without a recompute once the primary
// is gone. Members inside a cooldown window are skipped — the warm is an
// optimisation, not a delivery guarantee, and the next write-through after
// recovery re-warms them.
func (rt *router) replicate(member, path, contentType string, body []byte) {
	if !rt.client.Down(member) {
		rt.postBackground(member, path, contentType, body, &rt.replicated)
	}
}

// postBackground POSTs body to member on a goroutine replWG tracks,
// bounded by replicateTimeout and detached from any request, counting a
// delivered response in delivered when non-nil. Write-through warms and
// cutover notifications are both best-effort this way.
func (rt *router) postBackground(member, path, contentType string, body []byte, delivered *atomic.Int64) {
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
		if delivered != nil {
			delivered.Add(1)
		}
	}()
}

// frameCanon frames canon payloads, bytes untouched, as one batch frame.
func frameCanon(payloads [][]byte) (contentType string, body []byte) {
	return mmlp.ContentTypeCanonBatch, canon.AppendBatch(nil, payloads)
}

// frameJSON frames marshalled JSON jobs as a mmlp.BatchRequest body: the
// bytes json.Marshal gives the request holding the same jobs.
func frameJSON(jobs [][]byte) (contentType string, body []byte) {
	body = append([]byte(`{"jobs":[`), bytes.Join(jobs, []byte(","))...)
	return mmlp.ContentTypeJSON, append(body, "]}"...)
}

// group is the slice of one batch owned by a single shard.
type group struct {
	key   canon.Key // a representative key, seeds the failover replica walk
	wires [][]byte  // each job's wire bytes
	orig  []int     // original indices, parallel to wires
}

// handleBatch validates the batch, fans the jobs out to their owning
// shards as per-shard sub-batches, and re-merges the shards' NDJSON
// streams in arrival order, rewriting each record's index back to the
// job's position in the original request. The per-job contract matches
// mmlpserve's: exactly one record per job, whatever happens to the fleet.
// Every job travels as its wire bytes, framed per sub-batch in the
// request's encoding: a canon frame is split at frame boundaries only and
// each payload routed by its hash and forwarded verbatim, never decoded;
// a JSON job is marshalled once. Accept:
// application/x-mmlp-canon-results selects the binary result frame for
// the merged response under either request encoding.
func (rt *router) handleBatch(w http.ResponseWriter, r *http.Request) {
	// Decoding validates everything before the first byte is emitted,
	// matching the all-or-nothing 400 a single shard gives a malformed
	// batch. Canon payloads are only sniffed: deeper decode errors are the
	// owning shard's per-job verdict.
	jobs, reqs, status, err := httperr.DecodeBatch(w, r, rt.maxBody)
	if err != nil {
		httperr.Write(w, status, httperr.CodeForStatus(status), err)
		return
	}
	ctx, cancel, ok := httperr.Deadline(w, r, rt.defaultDeadline)
	if !ok {
		return
	}
	defer cancel()
	// A canon payload is its own wire bytes; a JSON job is marshalled once,
	// for its first forward, any re-forward and every warm alike.
	frame := frameCanon
	if reqs != nil {
		frame = frameJSON
	}
	keys := make([]canon.Key, len(jobs))
	wires := make([][]byte, len(jobs))
	for i := range jobs {
		keys[i], wires[i] = httperr.RouteKey(jobs[i]), jobs[i].Canon
		if reqs != nil {
			// Cannot fail: every value came out of a JSON decode, which
			// admits no NaN, infinity or cycle (FuzzDecoders asserts it).
			wires[i], _ = json.Marshal(&reqs[i])
		}
	}
	if reqs == nil {
		rt.canonPassthrough.Add(int64(len(jobs)))
	}
	// Pin one ring generation for the whole batch: grouping, forwarding and
	// straggler re-forwards all agree on a single assignment even when an
	// /admin/ring cutover lands mid-stream.
	rv := rt.client.Acquire()
	defer rt.client.Release(rv)
	groups := map[string]*group{}
	for i, k := range keys {
		owner := rt.client.OwnerOn(rv, k)
		g := groups[owner]
		if g == nil {
			g = &group{key: k}
			groups[owner] = g
		}
		g.wires = append(g.wires, wires[i])
		g.orig = append(g.orig, i)
	}

	write := httperr.BatchWriter(w, r)
	var emu sync.Mutex
	answered := make([]string, len(jobs)) // member that solved each job
	emit := func(item mmlp.BatchItem, member string) {
		emu.Lock()
		defer emu.Unlock()
		if item.Error == "" && item.Index >= 0 && item.Index < len(answered) {
			answered[item.Index] = member
		}
		write(item)
	}

	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			rt.forwardGroup(ctx, rv, g, frame, emit)
		}(g)
	}
	wg.Wait()

	// Write-through: regroup the answered jobs by backup replica and warm
	// each replica with one background sub-batch of the same wire bytes,
	// so any member of a key's replica set can serve it cached after the
	// primary dies.
	if rt.client.Replication() > 1 {
		backups := map[string][][]byte{}
		for i, k := range keys {
			if answered[i] == "" {
				continue
			}
			for _, m := range rt.backupsFor(rv, k, answered[i]) {
				backups[m] = append(backups[m], wires[i])
			}
		}
		for m, ws := range backups {
			contentType, body := frame(ws)
			rt.replicate(m, "/v1/batch", contentType, body)
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
func (rt *router) forwardGroup(ctx context.Context, rv *shard.RingVersion, g *group, frame func([][]byte) (string, []byte), emit func(mmlp.BatchItem, string)) {
	wires, orig := g.wires, g.orig
	var contentType string
	var body []byte // re-framed only when the remaining job set shrinks
	err := rt.client.DoFuncOn(ctx, rv, g.key, func(member string) (bool, error) {
		if body == nil {
			contentType, body = frame(wires)
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
		emitted := make([]bool, len(wires))
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
		if nEmitted == len(wires) {
			return true, nil
		}
		// The stream broke mid-way: keep the answered jobs, re-forward the
		// rest. Solves are pure functions of their requests, so re-running
		// an answered-but-lost job on another shard is safe.
		var nwires [][]byte
		var norig []int
		for i, done := range emitted {
			if !done {
				nwires = append(nwires, wires[i])
				norig = append(norig, orig[i])
			}
		}
		wires, orig, body = nwires, norig, nil
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
	httperr.WriteJSON(w, rt.ringStatus())
}

// handleRingPost proposes a new member set. On acceptance the new ring
// routes all subsequently admitted requests immediately; requests already
// pinned to the old generation drain on the old assignment, and when the
// last one finishes the router tells every affected shard to prune the
// cache entries it no longer owns. A proposal while a previous cutover is
// still draining is rejected with 409 — retry once GET /admin/ring shows
// no drain.
func (rt *router) handleRingPost(w http.ResponseWriter, r *http.Request) {
	var prop mmlp.RingProposal
	if _, status, err := httperr.ReadJSON(w, r, rt.maxBody, &prop); err != nil {
		httperr.Write(w, status, httperr.CodeForStatus(status), err)
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
	httperr.WriteJSON(w, rt.ringStatus())
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
		if body, err := json.Marshal(upd); err == nil {
			rt.postBackground(m, "/admin/ring", mmlp.ContentTypeJSON, body, nil)
		}
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
	httperr.WriteJSON(w, out)
}

// stats snapshots the router block: the shard client's routing view plus
// the router's own write-through and passthrough counters.
func (rt *router) stats() mmlp.RouterStats {
	st := rt.client.Stats()
	st.Replicated = rt.replicated.Load()
	st.CanonPassthrough = rt.canonPassthrough.Load()
	return st
}

// handleMetrics renders the router block /statsz serves in the
// Prometheus text exposition format. Deliberately router-local: shard
// totals are each shard's /metrics to report (scraping them here would
// double-count in any setup where Prometheus also scrapes the shards
// directly), and the fleet aggregate stays on /statsz.
func (rt *router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := rt.stats()
	httperr.WriteMetrics(w, st.WriteMetrics)
}
