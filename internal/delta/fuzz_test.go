package delta_test

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/mmlp"
)

// fuzzCoefs are the coefficients a fuzzed term can carry: ordinary values,
// the extremes, and every class RowEdit.Validate rejects.
var fuzzCoefs = []float64{1, 0.5, 2, 3, 1e-300, 1e300, 0, -1, math.NaN(), math.Inf(1), math.Inf(-1)}

// fuzzEdits decodes data into at most 8 edits against base. Bytes pick the
// op and kind (out-of-range values included), the match (none, a base
// row's exact content, or decoded terms) and the terms (none, decoded
// terms, or the match's agents with decoded coefficients — the shape of a
// valid reweight). Decoded agents range over [-2, N+2).
func fuzzEdits(base *mmlp.Instance, data []byte) []mmlp.RowEdit {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	termsOf := func() []mmlp.Term {
		ts := make([]mmlp.Term, next()%4)
		for j := range ts {
			ts[j] = mmlp.Term{Agent: next()%(base.NumAgents+4) - 2, Coef: fuzzCoefs[next()%len(fuzzCoefs)]}
		}
		return ts
	}
	ops := []string{mmlp.EditAdd, mmlp.EditRemove, mmlp.EditReweight, "replace"}
	kinds := []string{mmlp.EditConstraint, mmlp.EditObjective, "row"}
	var edits []mmlp.RowEdit
	for len(data) > 0 && len(edits) < 8 {
		e := mmlp.RowEdit{Op: ops[next()%len(ops)], Kind: kinds[next()%len(kinds)]}
		switch sel := next(); sel % 3 {
		case 1:
			var rows [][]mmlp.Term
			for _, c := range base.Cons {
				rows = append(rows, c.Terms)
			}
			for _, o := range base.Objs {
				rows = append(rows, o.Terms)
			}
			e.Match = append([]mmlp.Term(nil), rows[(sel/3)%len(rows)]...)
		case 2:
			e.Match = termsOf()
		}
		switch next() % 3 {
		case 1:
			e.Terms = termsOf()
		case 2:
			for _, t := range e.Match {
				e.Terms = append(e.Terms, mmlp.Term{Agent: t.Agent, Coef: fuzzCoefs[next()%len(fuzzCoefs)]})
			}
		}
		edits = append(edits, e)
	}
	return edits
}

// FuzzDeltaApply: on a small generated base, every fuzzed edit set either
// fails with mmlp.ErrInvalid and exactly the message of the reference
// (deep clone, append, re-Validate, canonicalize), or yields a canonical
// instance hashing like the reference's — and never changes the base.
func FuzzDeltaApply(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 1, 2, 1, 1, 1, 3, 0})
	f.Add(uint8(1), []byte{2, 0, 4, 2, 1, 0})
	f.Fuzz(func(t *testing.T, family uint8, data []byte) {
		var in *mmlp.Instance
		switch family % 3 {
		case 0:
			in = gen.Random(gen.RandomConfig{Agents: 6, MaxDegI: 3, MaxDegK: 3, ExtraCons: 2, ExtraObjs: 1}, int64(family/3))
		case 1:
			in = gen.TriNecklace(3)
		default:
			in = gen.Random(gen.RandomConfig{Agents: 5, MaxDegI: 2, MaxDegK: 2, ExtraObjs: 1, ZeroOne: true}, int64(family/3))
		}
		base := in.Canonical()
		checkApply(t, "fuzz", base, fuzzEdits(base, data))
	})
}
