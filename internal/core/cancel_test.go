package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/structured"
)

// TestSolveCtxAlreadyCancelled: a context that is dead on arrival stops
// the t-stage in the t_u loop before any real work, for both the
// two-worker fan-out and the one-worker path.
func TestSolveCtxAlreadyCancelled(t *testing.T) {
	in := gen.RandomStructured(gen.StructuredConfig{Objectives: 30, MaxDegK: 3, ExtraCons: 15}, 1)
	s, err := structured.FromMMLP(in)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := new(core.Scratch).TStage(ctx, s, core.Options{R: 3, Workers: 2}, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel TStage err = %v, want context.Canceled", err)
	}
	if _, err := new(core.Scratch).TStage(ctx, s, core.Options{R: 3, Workers: 1}, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("scratch TStage err = %v, want context.Canceled", err)
	}
}

// TestSolveCtxLiveContextMatchesSolve: threading a live context through
// the kernel must not perturb a single output bit.
func TestSolveCtxLiveContextMatchesSolve(t *testing.T) {
	in := gen.RandomStructured(gen.StructuredConfig{Objectives: 20, MaxDegK: 3, ExtraCons: 10}, 2)
	s, err := structured.FromMMLP(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Solve(s, core.Options{R: 3})
	if err != nil {
		t.Fatal(err)
	}
	sc := new(core.Scratch)
	tv, err := sc.TStage(context.Background(), s, core.Options{R: 3}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Tail(s, core.Options{R: 3}, tv, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.UpperBound != want.UpperBound {
		t.Fatalf("UpperBound %v != %v", got.UpperBound, want.UpperBound)
	}
	for v := range want.X {
		if got.X[v] != want.X[v] {
			t.Fatalf("X[%d] = %v, want %v", v, got.X[v], want.X[v])
		}
	}
}
