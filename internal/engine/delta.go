package engine

import (
	"context"
	"errors"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/mmlp"
	"repro/internal/obs"
	"repro/internal/structured"
	"repro/internal/transform"
)

// This file is the incremental re-solve path behind POST /v1/delta. A
// delta names a cached base solve by canonical key and edits a few rows;
// the pipeline re-prices exactly the agents whose radius-(4r+3)
// neighbourhood the edits touch (delta.Plan) and splices every other
// kernel value from the base's record, then re-runs the cheap derived
// stages. The result is bit-identical to a cold solve of the edited
// instance — for every engine, because the dist protocols' T and X vectors
// are bit-identical to the centralised kernel's (see internal/dist). What
// a splice cannot reproduce is a dist run's traffic report, so delta
// results are stored back into the cache only for the centralised engine:
// a stored entry must replay bit-identically to ANY later request for its
// key, including a /v1/solve that expects rounds/messages.

// ErrBaseUnknown reports that the named base key holds no delta record on
// this process — never cached here, evicted, or cached before delta
// support. The serving layer maps it to 404/base_unknown and the client
// falls back to a full solve.
var ErrBaseUnknown = errors.New("engine: base key unknown (solve the instance in full first)")

// DeltaOutcome is the accounting of one delta solve.
type DeltaOutcome struct {
	// Key is the canonical key of the edited instance (the base for a
	// follow-up delta).
	Key canon.Key
	// DirtyAgents is how many structured-form agents the kernel re-ran for;
	// TotalAgents the structured instance size. Both are zero when the
	// edited instance was answered from the cache without solving.
	DirtyAgents int
	TotalAgents int
	// Spliced reports that at least one agent's kernel value was taken from
	// the base record. False on a cache hit, on a full recompute (the dirty
	// ball covered every agent), and on the fallback paths that re-solve
	// cold (base record without a t-vector, or a structural mismatch).
	Spliced bool
	// BaseX is the base answer's x, encoded once per stored base result
	// for the reply encoder to copy every unchanged entry from
	// (mmlp.AppendAnswer's base). Every delta reply carries it, whether
	// priced, a cache hit or coalesced; nil when the base's x is outside
	// the encoder's grammar.
	BaseX *mmlp.EncodedX
}

// SolveDelta solves base-plus-edits against the result cache. The returned
// solution is a private copy; cached reports that the edited instance was
// already in the cache (empty edit set, or edits that cancel out). All
// edit failures wrap mmlp.ErrInvalid; a missing base returns
// ErrBaseUnknown. Concurrent deltas arriving at one edited key coalesce
// exactly like concurrent solves of that key.
func SolveDelta(ctx context.Context, base canon.Key, edits []mmlp.RowEdit, sc *Scratch, ca *Cache) (sol *Solution, out *DeltaOutcome, cached bool, err error) {
	rep, _, err := solve(ctx, Request{Delta: &DeltaRequest{Base: base, Edits: edits}}, sc, ca, nil)
	return rep.Sol, rep.Delta, rep.Cached, err
}

// deltaPrologue keys a delta: it fetches the base record and applies the
// edits under the delta-plan trace slot, then canonicalizes and hashes the
// edited instance under the same slots as a solve. Apply validates every
// row it writes and shares the rest with the base, which was validated
// when it was solved, so there is no whole-instance Validate; and its
// result is canonical, so canonicalizing it is a check, not a copy. The
// fetch is not a cache lookup (cache.Load), so a delta counts once in the
// cache stats, under its edited key. The record is immutable cache state,
// so it stays valid even if the entry is evicted between here and the
// kernel (the eviction edge case is a 404 only when it precedes this
// fetch).
func deltaPrologue(d *DeltaRequest, cs *mmlp.CanonScratch, ca *Cache, tr *obs.Trace) (keyed, error) {
	if ca == nil {
		return keyed{}, ErrBaseUnknown
	}
	tp := time.Now()
	v, ok := ca.c.Load(d.Base)
	if !ok {
		return keyed{}, ErrBaseUnknown
	}
	b := deltaBase{res: v.(*cachedResult), ca: ca, key: d.Base}
	rec := b.res.rec
	if rec == nil || rec.In == nil {
		return keyed{}, ErrBaseUnknown
	}
	edited, err := delta.Apply(rec.In, d.Edits)
	if err != nil {
		return keyed{}, err
	}
	baseX := b.encodedX()
	tr.Add(obs.StageDeltaPlan, time.Since(tp))
	tc := time.Now()
	k := keyed{in: edited.CanonicalInto(cs), opts: rec.Opts, base: b}
	k.owned = k.in == edited
	tr.Add(obs.StageCanonicalize, time.Since(tc))
	th := time.Now()
	k.key = canon.Hash(k.in, rec.Opts)
	tr.Add(obs.StageHash, time.Since(th))
	k.out = &DeltaOutcome{Key: k.key, BaseX: baseX}
	k.store = k.opts.Engine == mmlp.EngineCentral
	return k, nil
}

// deltaBase is the stored result a delta prices against, with the cache
// entry that holds it: the memos its record builds for the first delta
// are charged to that entry.
type deltaBase struct {
	res *cachedResult
	ca  *Cache
	key canon.Key
}

// charge adds n bytes to the base's cache entry while the entry still
// holds this result.
func (b *deltaBase) charge(n int64) { b.ca.c.Charge(b.key, b.res, n) }

// encodedX returns the base answer's memoised encoded x, building it on
// the first delta.
func (b *deltaBase) encodedX() *mmlp.EncodedX {
	return b.res.rec.EncodedX(func() *mmlp.EncodedX {
		m := mmlp.EncodeX(b.res.sol.X)
		b.charge(m.Bytes())
		return m
	})
}

// form returns the base record's memoised BaseForm, building it on the
// first delta that needs it: nil when the base never ran the kernel or its
// pipeline cannot be aligned.
func (b *deltaBase) form(copts core.Options) *delta.BaseForm {
	base := b.res.rec
	if base.T == nil {
		return nil
	}
	// The base is transformed and its tail derived once per record, not
	// per delta: the memoised forms are shared by every delta priced
	// against it. The build uses a private arena (the worker's holds the
	// edited side) whose memory the form then owns; the trace is detached
	// from it by Own. The base reached the kernel, so its pipeline must
	// take the standard shape; anything else means the record cannot be
	// aligned.
	return base.Base(func() *delta.BaseForm {
		osc := NewScratch()
		pp := transform.PreprocessScratch(base.In, &osc.pipe)
		if pp.Outcome != transform.OK {
			return nil
		}
		pipe, err := transform.StructureScratch(pp.Out, &osc.pipe)
		if err != nil {
			return nil
		}
		s, err := structured.FromMMLPScratch(pipe.Final(), &osc.str)
		if err != nil || len(base.T) != s.N {
			return nil
		}
		tr, err := osc.core.Tail(s, copts, base.T, nil, nil)
		if err != nil {
			return nil
		}
		f := &delta.BaseForm{S: s, Trace: tr.Own()}
		if pipe.Final() == base.In {
			f.Pre, f.Pipe = pp, pipe
		}
		b.charge(f.Bytes())
		return f
	})
}

// planSplice plans a delta against its base's form: the dirty agent set —
// every agent within the kernel's radius-(4r+3) reach of an edited row —
// and the output ball — every agent within OutputRadius(r), whose s, g±
// and x the tail re-derives — from one BFS on sc's plan scratch. ok is
// false when the edit cannot be spliced: no form, or structured forms
// that do not align.
func planSplice(form *delta.BaseForm, sNew *structured.Instance, copts core.Options, sc *Scratch) (dirty, ball []int, ok bool) {
	if form == nil || form.S.N != sNew.N {
		return nil, nil, false
	}
	tp := time.Now()
	r := copts.R - 2
	dirty, ball, err := sc.plan.Plan(form.S, sNew, core.TRadius(r), core.OutputRadius(r))
	if err != nil {
		return nil, nil, false
	}
	sc.Trace.Add(obs.StageDeltaPlan, time.Since(tp))
	return dirty, ball, true
}
