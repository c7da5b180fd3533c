package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/canon"
	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/shard"
)

// reweightRow builds the edit set that scales one canonical constraint row
// by factor.
func reweightRow(row []mmlp.Term, factor float64) []mmlp.RowEdit {
	nt := make([]mmlp.Term, len(row))
	for j, t := range row {
		nt[j] = mmlp.Term{Agent: t.Agent, Coef: t.Coef * factor}
	}
	return []mmlp.RowEdit{{
		Op: mmlp.EditReweight, Kind: mmlp.EditConstraint,
		Match: append([]mmlp.Term(nil), row...), Terms: nt,
	}}
}

// runDelta is the incremental re-solve scenario: a delta names its cached
// base by canonical key, so the router must route it to the shard owning
// the BASE key — the only shard whose cache can hold the record. The
// spliced answer must be bit-identical to the direct reference's cold
// solve of the edited instance, a repeated delta must be a cache hit, an
// unknown base must relay 404/base_unknown without marking the shard
// down, and a chained delta whose base landed on a different ring owner
// must follow the documented fallback: 404, full solve to seed, retry.
func (h *harness) runDelta() error {
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

	// The base: a necklace, whose Θ(n) diameter keeps the edit's
	// radius-(4r+3) ball a strict subset of the agents, so the delta
	// provably splices instead of recomputing everything.
	in := gen.TriNecklace(40)
	baseReq := mmlp.SolveRequest{Instance: in, R: 2, DisableSpecialCases: true}
	baseKey, err := keyFor(&baseReq)
	if err != nil {
		return err
	}
	if _, cached, _, err := h.solveBothNormalized(0, &baseReq); err != nil {
		return fmt.Errorf("warm base: %w", err)
	} else if cached {
		return fmt.Errorf("base already cached on first contact")
	}

	// Client-side reference: the same edit applied to the canonical base,
	// solved cold by the direct server.
	cin := in.Canonical()
	edits := reweightRow(cin.Cons[0].Terms, 1.25)
	edited, err := delta.Apply(cin, edits)
	if err != nil {
		return err
	}
	editedReq := mmlp.SolveRequest{Instance: edited, R: 2, DisableSpecialCases: true}
	editedKey, err := keyFor(&editedReq)
	if err != nil {
		return err
	}
	dcode, dbody, _, err := h.post(h.directAddr, "/v1/solve", mmlp.ContentTypeJSON, &editedReq, nil)
	if err != nil || dcode != http.StatusOK {
		return fmt.Errorf("direct reference solve: status %d, err %v (%s)", dcode, err, dbody)
	}
	var ref mmlp.SolveResponse
	if err := json.Unmarshal(dbody, &ref); err != nil {
		return fmt.Errorf("direct reference solve: %w", err)
	}

	// The delta through the router: owner-of-base routing, bit-identity,
	// splice accounting, and the chained-base key.
	dreq := &mmlp.DeltaRequest{Base: baseKey.String(), Edits: edits}
	code, body, hdr, err := h.post(h.routerAddr, "/v1/delta", mmlp.ContentTypeJSON, dreq, nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("delta via router: status %d, err %v (%s)", code, err, body)
	}
	member := hdr.Get("X-Mmlp-Shard")
	owner := ring.Owner(baseKey)
	if member != owner {
		return fmt.Errorf("delta served by shard %s, base key's ring owner is %s", member, owner)
	}
	var dresp mmlp.DeltaResponse
	if err := json.Unmarshal(body, &dresp); err != nil {
		return fmt.Errorf("bad delta response %q: %w", body, err)
	}
	if dresp.Status != ref.Status || dresp.Utility != ref.Utility || dresp.UpperBound != ref.UpperBound ||
		!bytes.Equal(mustJSON(dresp.X), mustJSON(ref.X)) {
		return fmt.Errorf("delta solution differs from the direct cold solve of the edited instance\ndelta:  %s\ndirect: %s", body, dbody)
	}
	if dresp.Key != editedKey.String() {
		return fmt.Errorf("delta key %s, want the edited instance's canonical key %s", dresp.Key, editedKey)
	}
	if dresp.Cached || !dresp.Spliced || dresp.DirtyAgents <= 0 || dresp.DirtyAgents >= dresp.TotalAgents {
		return fmt.Errorf("delta accounting: cached=%v spliced=%v dirty=%d/%d, want a fresh strict splice",
			dresp.Cached, dresp.Spliced, dresp.DirtyAgents, dresp.TotalAgents)
	}
	fmt.Printf("delta identity: spliced re-solve (%d/%d agents re-priced) bit-identical to the direct cold solve\n",
		dresp.DirtyAgents, dresp.TotalAgents)

	// The same delta again is a cache hit with the same solution bytes.
	code, body2, _, err := h.post(h.routerAddr, "/v1/delta", mmlp.ContentTypeJSON, dreq, nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("repeated delta: status %d, err %v (%s)", code, err, body2)
	}
	var dresp2 mmlp.DeltaResponse
	if err := json.Unmarshal(body2, &dresp2); err != nil {
		return err
	}
	if !dresp2.Cached || !bytes.Equal(mustJSON(dresp2.X), mustJSON(dresp.X)) {
		return fmt.Errorf("repeated delta: cached=%v, want a hit with identical solution", dresp2.Cached)
	}

	// An empty edit set answers from the base's own cache line.
	code, body3, _, err := h.post(h.routerAddr, "/v1/delta", mmlp.ContentTypeJSON, &mmlp.DeltaRequest{Base: baseKey.String()}, nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("empty-edit delta: status %d, err %v (%s)", code, err, body3)
	}
	var dresp3 mmlp.DeltaResponse
	if err := json.Unmarshal(body3, &dresp3); err != nil {
		return err
	}
	if !dresp3.Cached || dresp3.Key != baseKey.String() {
		return fmt.Errorf("empty-edit delta: cached=%v key=%s, want a hit on the base key", dresp3.Cached, dresp3.Key)
	}

	// An unknown base relays the shard's 404/base_unknown verbatim and the
	// shard is NOT marked down: a cold cache is an answer, not a failure.
	unknown := canon.HashBytes([]byte("fleetcheck: never solved"))
	code, body4, _, err := h.post(h.routerAddr, "/v1/delta", mmlp.ContentTypeJSON, &mmlp.DeltaRequest{Base: unknown.String(), Edits: edits}, nil)
	if err != nil {
		return err
	}
	if code != http.StatusNotFound {
		return fmt.Errorf("unknown-base delta: status %d (%s), want 404", code, body4)
	}
	var envelope mmlp.ErrorResponse
	if err := json.Unmarshal(body4, &envelope); err != nil || envelope.Error.Code != mmlp.ErrCodeBaseUnknown {
		return fmt.Errorf("unknown-base delta: body %s, want a %q envelope (err %v)", body4, mmlp.ErrCodeBaseUnknown, err)
	}

	// Chained delta: the first delta's result was stored on the BASE key's
	// owner, but the router routes the chain by its new base (the edited
	// key), whose ring owner may be a different shard. Same owner → served
	// directly; different owner → the documented fallback: 404, full solve
	// to seed the base where the ring wants it, then the delta lands.
	// The chain's base is the EDITED instance, so its edit must match the
	// already-reweighted row, not the original.
	chain := &mmlp.DeltaRequest{Base: editedKey.String(), Edits: reweightRow(edits[0].Terms, 1.5)}
	code, body5, hdr, err := h.post(h.routerAddr, "/v1/delta", mmlp.ContentTypeJSON, chain, nil)
	if err != nil {
		return err
	}
	member5 := hdr.Get("X-Mmlp-Shard")
	chainOwner := ring.Owner(editedKey)
	if member5 != chainOwner {
		return fmt.Errorf("chained delta served by %s, edited key's ring owner is %s", member5, chainOwner)
	}
	if chainOwner == owner {
		if code != http.StatusOK {
			return fmt.Errorf("chained delta on the same owner: status %d (%s), want 200", code, body5)
		}
		fmt.Printf("delta chain: edited key stayed on %s, chained delta served from the stored record\n", chainOwner)
	} else {
		if code != http.StatusNotFound {
			return fmt.Errorf("chained delta on a different owner: status %d (%s), want the 404 fallback", code, body5)
		}
		if scode, sbody, _, err := h.post(h.routerAddr, "/v1/solve", mmlp.ContentTypeJSON, &editedReq, nil); err != nil || scode != http.StatusOK {
			return fmt.Errorf("seeding solve for the chain: status %d, err %v (%s)", scode, err, sbody)
		}
		code, body5, _, err = h.post(h.routerAddr, "/v1/delta", mmlp.ContentTypeJSON, chain, nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("chained delta after seeding: status %d, err %v (%s)", code, err, body5)
		}
		fmt.Printf("delta chain: edited key moved to %s, full-solve fallback re-seeded it and the chained delta landed\n", chainOwner)
	}
	var chainResp mmlp.DeltaResponse
	if err := json.Unmarshal(body5, &chainResp); err != nil {
		return err
	}
	chainEdited, err := delta.Apply(edited.Canonical(), chain.Edits)
	if err != nil {
		return err
	}
	chainReq := mmlp.SolveRequest{Instance: chainEdited, R: 2, DisableSpecialCases: true}
	ccode, cbody, _, err := h.post(h.directAddr, "/v1/solve", mmlp.ContentTypeJSON, &chainReq, nil)
	if err != nil || ccode != http.StatusOK {
		return fmt.Errorf("direct reference for the chain: status %d, err %v (%s)", ccode, err, cbody)
	}
	var chainRef mmlp.SolveResponse
	if err := json.Unmarshal(cbody, &chainRef); err != nil {
		return err
	}
	if chainResp.Utility != chainRef.Utility || chainResp.UpperBound != chainRef.UpperBound ||
		!bytes.Equal(mustJSON(chainResp.X), mustJSON(chainRef.X)) {
		return fmt.Errorf("chained delta differs from the direct cold solve\ndelta:  %s\ndirect: %s", body5, cbody)
	}

	// The delta ledger: counters live on the shards the deltas landed on,
	// the router's fleet view sums them, and no shard was ever marked down.
	time.Sleep(100 * time.Millisecond) // let the last scrapes quiesce
	var sum mmlp.StatsRaw
	for _, addr := range h.shardAddrs {
		raw, err := h.scrapeRaw(addr)
		if err != nil {
			return err
		}
		sum.Add(raw)
	}
	if sum.DeltaMisses < 2 || sum.DeltaHits < 2 || sum.DirtyAgents <= 0 {
		return fmt.Errorf("fleet delta counters: hits=%d misses=%d dirty=%d, want ≥2 hits, ≥2 misses and a positive dirty total",
			sum.DeltaHits, sum.DeltaMisses, sum.DirtyAgents)
	}
	fleet, err := h.fleetStats()
	if err != nil {
		return err
	}
	if fleet.Fleet.DeltaHits != sum.DeltaHits || fleet.Fleet.DeltaMisses != sum.DeltaMisses || fleet.Fleet.DirtyAgents != sum.DirtyAgents {
		return fmt.Errorf("fleet view delta counters %d/%d/%d do not match the per-shard sums %d/%d/%d",
			fleet.Fleet.DeltaHits, fleet.Fleet.DeltaMisses, fleet.Fleet.DirtyAgents,
			sum.DeltaHits, sum.DeltaMisses, sum.DirtyAgents)
	}
	if fleet.Router.ShardDown != 0 || fleet.Router.Retried != 0 {
		return fmt.Errorf("delta traffic marked shards down or retried: %+v", fleet.Router)
	}
	fmt.Printf("delta ledger: hits=%d misses=%d dirty_agents=%d aggregated correctly, no shard marked down\n",
		sum.DeltaHits, sum.DeltaMisses, sum.DirtyAgents)
	return h.checkConservation(h.shardAddrs)
}
