package delta_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/structured"
	"repro/internal/transform"
)

// structure runs the §4 pipeline the engine runs, reporting false for an
// instance that leaves it before the structured form.
func structure(in *mmlp.Instance) (*structured.Instance, bool) {
	pp := transform.Preprocess(in)
	if pp.Outcome != transform.OK {
		return nil, false
	}
	pipe, err := transform.Structure(pp.Out)
	if err != nil {
		return nil, false
	}
	s, err := structured.FromMMLP(pipe.Final())
	return s, err == nil
}

// families is one instance of every in-repo family, the necklaces, the
// tree and the sensor strip long enough that an edit's output ball at
// R = 5 (43 hops) can leave agents out.
func families(seed int64) map[string]*mmlp.Instance {
	layered, _, _ := gen.LayeredNecklace(30)
	return map[string]*mmlp.Instance{
		"random":     gen.Random(gen.RandomConfig{Agents: 60, MaxDegI: 3, MaxDegK: 3, ExtraCons: 4, ExtraObjs: 2}, seed),
		"random-0/1": gen.Random(gen.RandomConfig{Agents: 60, MaxDegI: 3, MaxDegK: 3, ExtraCons: 4, ExtraObjs: 2, ZeroOne: true}, seed),
		"structured": gen.RandomStructured(gen.StructuredConfig{Objectives: 40, MaxDegK: 3, ExtraCons: 4}, seed),
		"necklace":   gen.TriNecklace(30),
		"layered":    layered,
		"tree":       gen.LayeredTree(5),
		"sensor":     gen.SensorGrid(gen.SensorGridConfig{Width: 12, Height: 3, Sensors: 20, Fan: 2}, seed),
		"bandwidth":  gen.Bandwidth(gen.BandwidthConfig{Links: 40, Customers: 20, PathsPerCustomer: 2, MaxPathLen: 3}, seed),
		"equations":  gen.Equations(gen.EquationsConfig{Vars: 16, Rows: 10, Density: 0.2}, seed),
	}
}

// traceDiff names the first field where two traces differ bitwise, or
// returns "" when they agree on S, g±, x and the upper bound.
func traceDiff(a, b *core.Trace) string {
	eq := func(x, y []float64) int {
		for v := range x {
			if math.Float64bits(x[v]) != math.Float64bits(y[v]) {
				return v
			}
		}
		return -1
	}
	if v := eq(a.S, b.S); v >= 0 {
		return fmt.Sprintf("s[%d] %v vs %v", v, a.S[v], b.S[v])
	}
	for d := range a.GPlus {
		if v := eq(a.GPlus[d], b.GPlus[d]); v >= 0 {
			return fmt.Sprintf("g+[%d][%d] %v vs %v", d, v, a.GPlus[d][v], b.GPlus[d][v])
		}
		if v := eq(a.GMinus[d], b.GMinus[d]); v >= 0 {
			return fmt.Sprintf("g−[%d][%d] %v vs %v", d, v, a.GMinus[d][v], b.GMinus[d][v])
		}
	}
	if v := eq(a.X, b.X); v >= 0 {
		return fmt.Sprintf("x[%d] %v vs %v", v, a.X[v], b.X[v])
	}
	if math.Float64bits(a.UpperBound) != math.Float64bits(b.UpperBound) {
		return fmt.Sprintf("upper bound %v vs %v", a.UpperBound, b.UpperBound)
	}
	return ""
}

// TestBallTailMatchesFullTail is the differential of the splice's tail:
// on every family, for add, remove and reweight edits at R = 2…5, the
// ball-local Tail over Plan's OutputRadius ball equals the full Tail bit
// for bit — and both equal a cold solve of the edited instance. The same
// cases with the ball cut to the dirty t-set must miss somewhere, or the
// differential could not tell a too-small ball from a right one.
func TestBallTailMatchesFullTail(t *testing.T) {
	var ps delta.Scratch
	var scFull, scBall core.Scratch
	perFamily := map[string]int{}
	cases, strict, cutMisses := 0, 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		for name, in := range families(seed) {
			cin := in.Canonical()
			sOld, ok := structure(cin)
			if !ok {
				t.Fatalf("%s: base does not reach the structured form", name)
			}
			bases := map[int]*core.Trace{}
			for R := 2; R <= 5; R++ {
				old, err := core.Solve(sOld, core.Options{R: R, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				bases[R] = old.Own()
			}
			for e := int64(0); e < 8; e++ {
				edits := gen.RowEdits(cin, 1+int(e%2), 100*seed+e)
				edited, err := delta.Apply(cin, edits)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sNew, ok := structure(edited)
				if !ok || sNew.N != sOld.N {
					continue // the engine solves such an edit cold
				}
				for R := 2; R <= 5; R++ {
					opt := core.Options{R: R, Workers: 1}
					r, base := R-2, bases[R]
					dirty, ball, err := ps.Plan(sOld, sNew, core.TRadius(r), core.OutputRadius(r))
					if err != nil {
						t.Fatal(err)
					}
					dirty, ball = slices.Clone(dirty), slices.Clone(ball)
					tv, err := core.RecomputeT(sNew, base.T, dirty, opt)
					if err != nil {
						t.Fatal(err)
					}
					full, err := scFull.Tail(sNew, opt, tv, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					local, err := scBall.Tail(sNew, opt, tv, ball, base)
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("%s seed %d edits %d R=%d (dirty %d, ball %d of %d)", name, seed, e, R, len(dirty), len(ball), sNew.N)
					if d := traceDiff(local, full); d != "" {
						t.Fatalf("%s: ball-local tail differs from the full tail: %s", at, d)
					}
					cold, err := core.Solve(sNew, opt)
					if err != nil {
						t.Fatal(err)
					}
					if d := traceDiff(full, cold); d != "" {
						t.Fatalf("%s: spliced tail differs from a cold solve: %s", at, d)
					}
					cases++
					perFamily[name]++
					if len(ball) < sNew.N {
						strict++
					}
					cut, err := scBall.Tail(sNew, opt, tv, dirty, base)
					if err != nil {
						t.Fatal(err)
					}
					if traceDiff(cut, full) != "" {
						cutMisses++
					}
				}
			}
		}
	}
	if len(perFamily) != len(families(1)) || strict < 50 {
		t.Fatalf("cases per family %v, %d with a strict ball: the differential lost its coverage", perFamily, strict)
	}
	if cutMisses == 0 {
		t.Fatalf("cutting the ball to the dirty set matched the full tail in all %d cases", cases)
	}
	t.Logf("%d cases, %d with a strict ball, %d missed with the ball cut to the dirty set", cases, strict, cutMisses)
}

// TestBallTailRejectsBadArguments: a ball-local tail needs an owned base
// trace of the same shape and an ascending in-range ball.
func TestBallTailRejectsBadArguments(t *testing.T) {
	s, ok := structure(gen.TriNecklace(6))
	if !ok {
		t.Fatal("necklace does not structure")
	}
	opt := core.Options{R: 3}
	tr, err := core.Solve(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	var sc core.Scratch
	for name, c := range map[string]struct {
		ball []int
		base *core.Trace
	}{
		"unowned-base": {[]int{0, 1}, tr},
		"nil-base":     {[]int{0, 1}, nil},
		"unsorted":     {[]int{1, 0}, tr.Own()},
		"duplicate":    {[]int{1, 1}, tr.Own()},
		"out-of-range": {[]int{s.N}, tr.Own()},
	} {
		if _, err := sc.Tail(s, opt, tr.T, c.ball, c.base); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	other, err := core.Solve(s, core.Options{R: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Tail(s, opt, tr.T, []int{0}, other.Own()); err == nil {
		t.Fatal("accepted a base trace at another R")
	}
}
