package engine_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
)

// TestDeltaReplyCarriesBaseX: every delta reply carries its base answer's
// encoded x, built once: a priced delta, a cache hit on the edited key,
// and a delivery to a caller that subscribed to another caller's flight.
func TestDeltaReplyCarriesBaseX(t *testing.T) {
	ctx := context.Background()
	in := gen.TriNecklace(1000)
	opts := engine.Options{R: 4, DisableSpecialCases: true}
	ca := engine.NewCache(engine.CacheOptions{MaxBytes: 1 << 30})
	base := seedBase(t, ca, in, opts)
	baseSol, _, err := engine.Solve(ctx, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	req := func(factor float64) engine.Request {
		return engine.Request{Delta: &engine.DeltaRequest{Base: base, Edits: reweightEdit(in, factor)}}
	}

	priced, _, err := engine.SolveOrSubscribe(ctx, req(2), engine.NewScratch(), ca, nil)
	if err != nil {
		t.Fatal(err)
	}
	memo := priced.Delta.BaseX
	if priced.Cached || memo == nil {
		t.Fatalf("priced delta: cached %v, memo %v", priced.Cached, memo)
	}
	want, err := mmlp.AppendAnswer(nil, &mmlp.SolveResponse{Status: "approximate", X: baseSol.X}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := mmlp.AppendAnswer(nil, &mmlp.SolveResponse{Status: "approximate", X: baseSol.X}, memo); string(got) != string(want) {
		t.Fatal("the memo does not encode the base answer's x")
	}

	hit, _, err := engine.SolveOrSubscribe(ctx, req(2), engine.NewScratch(), ca, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Delta.BaseX != memo {
		t.Fatalf("hit: cached %v, memo %p, want %p", hit.Cached, hit.Delta.BaseX, memo)
	}

	// A cold solve of an edited instance leads a flight of its key, and a
	// delta to the same instance subscribes to it while its kernel runs;
	// a leader that finishes first makes the delta a hit, so try again
	// with another edit.
	for factor := 3.0; ; factor++ {
		if factor > 40 {
			t.Fatal("no caller ever subscribed to a leader's flight")
		}
		edited, err := delta.Apply(in.Canonical(), reweightEdit(in, factor))
		if err != nil {
			t.Fatal(err)
		}
		misses := ca.Stats().Misses
		done := make(chan error, 1)
		go func() {
			_, _, _, err := engine.SolveCached(ctx, edited, opts, engine.NewScratch(), ca)
			done <- err
		}()
		for ca.Stats().Misses == misses {
			time.Sleep(10 * time.Microsecond)
		}
		delivered := make(chan engine.Reply, 1)
		_, subscribed, err := engine.SolveOrSubscribe(ctx, req(factor), engine.NewScratch(), ca, func(rep engine.Reply, err error) {
			if err != nil {
				t.Error(err)
			}
			delivered <- rep
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !subscribed {
			continue
		}
		if rep := <-delivered; !rep.Cached || rep.Delta.BaseX != memo {
			t.Fatalf("coalesced: cached %v, memo %p, want %p", rep.Cached, rep.Delta.BaseX, memo)
		}
		return
	}
}

// overflowInstances pass Validate, yet their optimum overflows float64.
func overflowInstances() map[string]*mmlp.Instance {
	pair := func(con, obj float64) *mmlp.Instance {
		return &mmlp.Instance{
			NumAgents: 2,
			Cons:      []mmlp.Constraint{{Terms: []mmlp.Term{{Agent: 0, Coef: con}, {Agent: 1, Coef: con}}}},
			Objs:      []mmlp.Objective{{Terms: []mmlp.Term{{Agent: 0, Coef: obj}, {Agent: 1, Coef: obj}}}},
		}
	}
	return map[string]*mmlp.Instance{
		"subnormal pair": pair(5e-324, 1),
		"subnormal single": {
			NumAgents: 1,
			Cons:      []mmlp.Constraint{{Terms: []mmlp.Term{{Agent: 0, Coef: 5e-324}}}},
			Objs:      []mmlp.Objective{{Terms: []mmlp.Term{{Agent: 0, Coef: 1}}}},
		},
		"normal scales": pair(1e-300, 1e300),
	}
}

// TestOverflowIsInvalid: an answer that overflows float64 is an
// ErrOverflow, which wraps ErrInvalid, on every engine, with and without
// the special cases, and the cache stores nothing for it.
func TestOverflowIsInvalid(t *testing.T) {
	ctx := context.Background()
	for name, in := range overflowInstances() {
		if err := in.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, eng := range []mmlp.Engine{mmlp.EngineCentral, mmlp.EngineDistributed, mmlp.EngineDistributedCompact} {
			for _, dsc := range []bool{false, true} {
				opts := engine.Options{Engine: eng, DisableSpecialCases: dsc}
				ca := engine.NewCache(engine.CacheOptions{})
				sol, _, _, err := engine.SolveCached(ctx, in, opts, engine.NewScratch(), ca)
				if !errors.Is(err, engine.ErrOverflow) || !errors.Is(err, mmlp.ErrInvalid) {
					t.Fatalf("%s %v dsc=%v: solution %+v, error %v; want ErrOverflow", name, eng, dsc, sol, err)
				}
				if st := ca.Stats(); st.Entries != 0 {
					t.Fatalf("%s %v dsc=%v: the cache stored the overflow: %+v", name, eng, dsc, st)
				}
				if _, _, _, err := engine.SolveCanonBytes(ctx, engine.EncodeCanon(in, opts), nil, ca); err == nil || err.Error() != errOf(t, in, opts).Error() {
					t.Fatalf("%s %v dsc=%v: canon error %v", name, eng, dsc, err)
				}
			}
		}
	}
}

func errOf(t *testing.T, in *mmlp.Instance, opts engine.Options) error {
	t.Helper()
	_, _, err := engine.Solve(context.Background(), in, opts)
	return err
}
