package core_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
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

// TestTStageCancelledWhileRunning: a context that another goroutine
// cancels while TStage runs on the 3,000-agent necklace stops it with
// context.Canceled, on the one-worker and the two-worker path.
func TestTStageCancelledWhileRunning(t *testing.T) {
	s, err := structured.FromMMLP(gen.TriNecklace(1000))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		c := &cancelOnDone{Context: ctx, cancel: cancel, cancelled: make(chan struct{})}
		if _, err := new(core.Scratch).TStage(c, s, core.Options{R: 4, Workers: workers}, nil, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("Workers %d: TStage err = %v, want context.Canceled", workers, err)
		}
		cancel()
	}
}

// cancelOnDone is a live context that its own goroutine cancels once a
// worker first fetches its Done channel, so the cancel lands while the
// t-stage runs. Err waits for a cancel that has started, so TStage's final
// check always sees it; a context whose Done is never fetched stays live.
type cancelOnDone struct {
	context.Context
	cancel    context.CancelFunc
	once      sync.Once
	started   atomic.Bool
	cancelled chan struct{}
}

func (c *cancelOnDone) Done() <-chan struct{} {
	c.once.Do(func() {
		c.started.Store(true)
		go func() {
			c.cancel()
			close(c.cancelled)
		}()
	})
	return c.Context.Done()
}

func (c *cancelOnDone) Err() error {
	if c.started.Load() {
		<-c.cancelled
	}
	return c.Context.Err()
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
