package gen

import (
	"math/rand"
	"slices"

	"repro/internal/mmlp"
)

// RowEdits draws n row edits against in — the edit sets of a delta —
// valid when applied to in in order. Each is a reweight, a removal or an
// addition, one in three each, in a random section: a reweight scales
// every coefficient of a current row by a factor in [0.5, 2); a removal
// drops a current row, never the last objective; an addition writes a
// fresh row over 1–3 distinct agents with coefficients in [0.5, 2). Rows
// are named by content with their terms shuffled, as the wire format
// allows. in is not modified.
func RowEdits(in *mmlp.Instance, n int, seed int64) []mmlp.RowEdit {
	rng := rand.New(rand.NewSource(seed))
	kinds := [2]string{mmlp.EditConstraint, mmlp.EditObjective}
	// The rows of each section as the edits so far leave them.
	var secs [2][][]mmlp.Term
	for _, c := range in.Cons {
		secs[0] = append(secs[0], c.Terms)
	}
	for _, o := range in.Objs {
		secs[1] = append(secs[1], o.Terms)
	}
	shuffled := func(ts []mmlp.Term) []mmlp.Term {
		out := slices.Clone(ts)
		rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
		return out
	}
	edits := make([]mmlp.RowEdit, 0, n)
	for len(edits) < n && in.NumAgents > 0 {
		k := rng.Intn(2)
		sec, keep := secs[k], k // the last objective stays
		switch op := rng.Intn(3); {
		case op == 0 && len(sec) > 0:
			i := rng.Intn(len(sec))
			nt := make([]mmlp.Term, len(sec[i]))
			for j, t := range sec[i] {
				nt[j] = mmlp.Term{Agent: t.Agent, Coef: t.Coef * (0.5 + 1.5*rng.Float64())}
			}
			edits = append(edits, mmlp.RowEdit{Op: mmlp.EditReweight, Kind: kinds[k], Match: shuffled(sec[i]), Terms: shuffled(nt)})
			sec[i] = nt
		case op == 1 && len(sec) > keep:
			i := rng.Intn(len(sec))
			edits = append(edits, mmlp.RowEdit{Op: mmlp.EditRemove, Kind: kinds[k], Match: shuffled(sec[i])})
			secs[k] = slices.Delete(sec, i, i+1)
		default:
			size := 1 + rng.Intn(min(3, in.NumAgents))
			nt := make([]mmlp.Term, size)
			for j, v := range rng.Perm(in.NumAgents)[:size] {
				nt[j] = mmlp.Term{Agent: v, Coef: 0.5 + 1.5*rng.Float64()}
			}
			edits = append(edits, mmlp.RowEdit{Op: mmlp.EditAdd, Kind: kinds[k], Terms: nt})
			secs[k] = append(sec, nt)
		}
	}
	return edits
}
