package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/structured"
)

func TestRadiiFormulas(t *testing.T) {
	for r := 0; r <= 4; r++ {
		if TRadius(r) != 4*r+3 {
			t.Fatalf("TRadius(%d) = %d", r, TRadius(r))
		}
		if SRadius(r) != 8*r+5 {
			t.Fatalf("SRadius(%d) = %d", r, SRadius(r))
		}
		if OutputRadius(r) != 12*r+7 {
			t.Fatalf("OutputRadius(%d) = %d", r, OutputRadius(r))
		}
	}
}

// TestSpliceHalvesRejectMismatches: the incremental halves refuse inputs
// that cannot belong to the instance — a t-vector of the wrong length, a
// dirty agent out of range, or an unusable R.
func TestSpliceHalvesRejectMismatches(t *testing.T) {
	s, err := structured.FromMMLP(gen.TriNecklace(5))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{R: 3}
	if _, err := new(Scratch).TStage(nil, s, opt, nil, make([]float64, s.N-1)); err == nil {
		t.Fatal("TStage accepted a base t-vector of the wrong length")
	}
	if _, err := new(Scratch).TStage(nil, s, opt, []int{s.N}, make([]float64, s.N)); err == nil {
		t.Fatal("TStage accepted an out-of-range dirty agent")
	}
	if _, err := new(Scratch).TStage(nil, s, Options{R: 1}, nil, make([]float64, s.N)); err == nil {
		t.Fatal("TStage accepted R = 1")
	}
	if _, err := new(Scratch).Tail(s, opt, make([]float64, s.N+1), nil, nil); err == nil {
		t.Fatal("Tail accepted a t-vector of the wrong length")
	}
}
