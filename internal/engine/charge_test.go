package engine

import (
	"context"
	"testing"

	"repro/internal/canon"
	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/mmlp"
)

// TestDeltaMemosChargedToBase: the memos a base's record builds for its
// first delta — the encoded x every reply copies from, the edit keyer
// every edited instance is keyed by, and the structured form and trace
// the splice prices against — are charged to the base's cache entry when
// they are built, once.
func TestDeltaMemosChargedToBase(t *testing.T) {
	ctx := context.Background()
	in := gen.TriNecklace(100)
	opts := Options{R: 4, DisableSpecialCases: true}
	ca := NewCache(CacheOptions{MaxBytes: 1 << 30})
	if _, _, _, err := SolveCached(ctx, in, opts, NewScratch(), ca); err != nil {
		t.Fatal(err)
	}
	baseKey := SolveKey(in, opts)
	v, ok := ca.c.Load(baseKey)
	if !ok {
		t.Fatal("base not stored")
	}
	base := v.(*cachedResult)
	before := ca.Stats().Bytes
	if before != base.bytes() {
		t.Fatalf("cache holds %d bytes, want the base's %d", before, base.bytes())
	}

	row := in.Canonical().Cons[0].Terms
	scaled := make([]mmlp.Term, len(row))
	for j, tm := range row {
		scaled[j] = mmlp.Term{Agent: tm.Agent, Coef: 2 * tm.Coef}
	}
	edits := []mmlp.RowEdit{{Op: mmlp.EditReweight, Kind: mmlp.EditConstraint, Match: row, Terms: scaled}}
	rep, _, err := SolveOrSubscribe(ctx, Request{Delta: &DeltaRequest{Base: baseKey, Edits: edits}}, NewScratch(), ca, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delta.Spliced {
		t.Fatalf("outcome %+v: expected a spliced delta", rep.Delta)
	}
	v, ok = ca.c.Load(rep.Delta.Key)
	if !ok {
		t.Fatal("delta result not stored")
	}
	edited := v.(*cachedResult)
	form := base.rec.Base(func() *delta.BaseForm {
		t.Fatal("the delta built no form")
		return nil
	})
	keyer := base.rec.Keyer(func() *canon.EditKeyer {
		t.Fatal("the delta built no keyer")
		return nil
	})
	memo := rep.Delta.BaseX
	if form.Bytes() < 8*int64(form.S.N) || memo.Bytes() < 2*int64(len(base.sol.X)) || keyer.Bytes() < 16*int64(in.NumAgents) {
		t.Fatalf("form %d B, memo %d B and keyer %d B are too small to be estimates", form.Bytes(), memo.Bytes(), keyer.Bytes())
	}
	want := before + edited.bytes() + form.Bytes() + memo.Bytes() + keyer.Bytes()
	if got := ca.Stats().Bytes; got != want {
		t.Fatalf("cache holds %d bytes, want base %d + delta %d + form %d + memo %d + keyer %d = %d",
			got, before, edited.bytes(), form.Bytes(), memo.Bytes(), keyer.Bytes(), want)
	}

	// A repeat is a hit on the edited key, and another edit reuses every
	// memo: none charges the base again.
	for _, factor := range []float64{2, 3} {
		for j, tm := range row {
			scaled[j] = mmlp.Term{Agent: tm.Agent, Coef: factor * tm.Coef}
		}
		rep, _, err := SolveOrSubscribe(ctx, Request{Delta: &DeltaRequest{Base: baseKey, Edits: edits}}, NewScratch(), ca, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Delta.BaseX != memo {
			t.Fatal("a later delta rebuilt the base's encoded x")
		}
		if !rep.Cached {
			v, _ := ca.c.Load(rep.Delta.Key)
			want += v.(*cachedResult).bytes()
		}
		if got := ca.Stats().Bytes; got != want {
			t.Fatalf("factor %v: cache holds %d bytes, want %d", factor, got, want)
		}
	}
}

// TestDeltaBaseSurvivesItsMemos: a base serves consecutive spliced deltas
// and stays cached after each, although its first delta charges the
// base's form and encoded x to its entry and every delta stores its own
// result beside it. A 3,000-agent base runs under an 8 MiB budget and a
// 30,000-agent one under the default budget.
func TestDeltaBaseSurvivesItsMemos(t *testing.T) {
	ctx := context.Background()
	opts := Options{R: 4, DisableSpecialCases: true}
	for _, tc := range []struct {
		name string
		n    int
		o    CacheOptions
	}{
		{"necklace-1000/8MiB", 1000, CacheOptions{MaxBytes: 8 << 20}},
		{"necklace-10000/default", 10000, CacheOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := gen.TriNecklace(tc.n)
			ca := NewCache(tc.o)
			sc := NewScratch()
			if _, _, _, err := SolveCached(ctx, in, opts, sc, ca); err != nil {
				t.Fatal(err)
			}
			baseKey := SolveKey(in, opts)
			row := in.Canonical().Cons[0].Terms
			for _, factor := range []float64{2, 3, 4} {
				scaled := make([]mmlp.Term, len(row))
				for j, tm := range row {
					scaled[j] = mmlp.Term{Agent: tm.Agent, Coef: factor * tm.Coef}
				}
				edits := []mmlp.RowEdit{{Op: mmlp.EditReweight, Kind: mmlp.EditConstraint, Match: row, Terms: scaled}}
				_, out, _, err := SolveDelta(ctx, baseKey, edits, sc, ca)
				if err != nil {
					t.Fatalf("delta ×%v: %v (cache %+v)", factor, err, ca.Stats())
				}
				if !out.Spliced {
					t.Fatalf("delta ×%v: outcome %+v, want a spliced delta", factor, out)
				}
				if _, ok := ca.c.Load(baseKey); !ok {
					t.Fatalf("delta ×%v evicted its base (cache %+v)", factor, ca.Stats())
				}
			}
		})
	}
}
