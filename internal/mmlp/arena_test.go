package mmlp

import (
	"reflect"
	"testing"
)

// TestArenaRowsShareTheFinalBacking: rows sealed while the term backing
// grew by doubling come back from Finish with their terms, each carved
// from the one final backing in seal order, so an instance built cold
// holds no backing it outgrew.
func TestArenaRowsShareTheFinalBacking(t *testing.T) {
	want := New(5)
	for i := range 200 {
		want.AddConstraint(float64(i%5), 1, float64((i+1)%5), float64(i))
	}
	for k := range 80 {
		want.AddObjective(float64(k%5), float64(k))
	}
	var a Arena
	for range 2 { // cold, then warm
		a.Reset(want.NumAgents)
		for _, c := range want.Cons {
			a.Add(c.Terms[0].Agent, c.Terms[0].Coef)
			a.EndConstraint(c.Terms[1:]...)
		}
		for _, o := range want.Objs {
			a.EndObjective(o.Terms...)
		}
		got := a.Finish()
		if !reflect.DeepEqual(got, want) {
			t.Fatal("Finish returned different rows from the ones sealed")
		}
		off := 0
		for _, ts := range append(rowsOf(got.Cons), rowsOf(got.Objs)...) {
			if &ts[0] != &a.terms[off] {
				t.Fatalf("the row at term %d is not carved from the final backing", off)
			}
			off += len(ts)
		}
	}
}

func rowsOf[R Row](rows []R) [][]Term {
	out := make([][]Term, len(rows))
	for i, r := range rows {
		out[i] = Constraint(r).Terms
	}
	return out
}
