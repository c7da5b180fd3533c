package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/canon"
)

// newRetryClient builds a client over a ring of fake member names with a
// recording, non-sleeping sleep — DoFuncOn is driven with pure fns, so no
// network or wall-clock time is involved.
func newRetryClient(t *testing.T, members []string, o ClientOptions) (*Client, *sleepRecorder) {
	t.Helper()
	ring, err := New(members, 16)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(ring, o)
	rec := &sleepRecorder{}
	c.sleep = rec.sleep
	return c, rec
}

type sleepRecorder struct {
	mu     sync.Mutex
	slept  []time.Duration
	cancel int // sleeps after which to report ctx-done; 0 = never
}

func (r *sleepRecorder) sleep(ctx context.Context, d time.Duration) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.slept = append(r.slept, d)
	return r.cancel == 0 || len(r.slept) < r.cancel
}

func (r *sleepRecorder) durations() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.slept...)
}

var errMemberDown = errors.New("synthetic transport failure")

// failingFn returns a DoFuncOn fn that fails every member, counting dials.
func failingFn(dials *int) func(string) (bool, error) {
	return func(string) (bool, error) {
		*dials++
		return false, errMemberDown
	}
}

// TestBackoffScheduleIsCappedAndSeeded: the waits between replica
// attempts follow base<<(n-1) capped at max — each wait in [d/2, d] —
// and two clients with the same seed replay the identical jittered
// schedule, while a different seed diverges.
func TestBackoffScheduleIsCappedAndSeeded(t *testing.T) {
	members := []string{"m0:1", "m1:1", "m2:1", "m3:1", "m4:1", "m5:1", "m6:1", "m7:1"}
	run := func(seed int64) []time.Duration {
		c, rec := newRetryClient(t, members, ClientOptions{RetryBackoff: 25 * time.Millisecond})
		c.backoffMax = 100 * time.Millisecond
		c.rng = rand.New(rand.NewSource(seed))
		var dials int
		err := c.DoFunc(context.Background(), canon.Key{}, failingFn(&dials))
		if !errors.Is(err, errMemberDown) {
			t.Fatalf("DoFunc = %v, want the synthetic transport failure", err)
		}
		if dials != len(members) {
			t.Fatalf("dialled %d members, want all %d", dials, len(members))
		}
		return rec.durations()
	}

	sleeps := run(7)
	if len(sleeps) != len(members)-1 {
		t.Fatalf("recorded %d sleeps, want one per retry hop (%d)", len(sleeps), len(members)-1)
	}
	// Expected uncapped exponent: 25ms, 50ms, 100ms, then capped at 100ms.
	for n, got := range sleeps {
		d := 25 * time.Millisecond << uint(n)
		if d > 100*time.Millisecond {
			d = 100 * time.Millisecond
		}
		if got < d/2 || got > d {
			t.Errorf("hop %d slept %v, want within [%v, %v]", n+1, got, d/2, d)
		}
	}

	same := run(7)
	for i := range sleeps {
		if sleeps[i] != same[i] {
			t.Fatalf("hop %d: %v vs %v — same seed must replay the same schedule", i+1, sleeps[i], same[i])
		}
	}
	diverged := false
	for i, d := range run(8) {
		if d != sleeps[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seed 7 and seed 8 produced identical jitter — the seed is dead")
	}
}

// TestBackoffDisabledByDefault: the zero options never sleep.
func TestBackoffDisabledByDefault(t *testing.T) {
	c, rec := newRetryClient(t, []string{"m0:1", "m1:1", "m2:1"}, ClientOptions{})
	var dials int
	if err := c.DoFunc(context.Background(), canon.Key{}, failingFn(&dials)); !errors.Is(err, errMemberDown) {
		t.Fatalf("DoFunc = %v", err)
	}
	if dials != 3 {
		t.Fatalf("dialled %d, want 3", dials)
	}
	if got := rec.durations(); len(got) != 0 {
		t.Fatalf("backoff disabled but slept %v", got)
	}
}

// TestBackoffAbortsWhenContextExpires: a ctx that dies during the wait
// ends the walk with the last real error, not a fabricated one.
func TestBackoffAbortsWhenContextExpires(t *testing.T) {
	c, rec := newRetryClient(t, []string{"m0:1", "m1:1", "m2:1", "m3:1"}, ClientOptions{RetryBackoff: 10 * time.Millisecond})
	rec.cancel = 2 // the second sleep reports ctx-done
	var dials int
	err := c.DoFunc(context.Background(), canon.Key{}, failingFn(&dials))
	if !errors.Is(err, errMemberDown) {
		t.Fatalf("DoFunc = %v, want the last member error", err)
	}
	if dials != 2 {
		t.Fatalf("dialled %d members, want 2 (the walk must stop at the dead sleep)", dials)
	}
}

// TestRetryBudgetExhaustsAndRefills is the token-bucket table: a burst of
// failures drains the bucket to a typed fast-fail, and successes earn the
// retries back at the refill per request.
func TestRetryBudgetExhaustsAndRefills(t *testing.T) {
	members := []string{"m0:1", "m1:1", "m2:1", "m3:1", "m4:1", "m5:1"}
	c, _ := newRetryClient(t, members, ClientOptions{RetryBudget: 2})
	c.budgetRefill = 500 // half a token per success

	// Request 1: every member fails. Dial 1 is free; hops 2 and 3 spend
	// the whole budget; hop 4 is refused.
	var dials int
	err := c.DoFunc(context.Background(), canon.Key{}, failingFn(&dials))
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want ErrRetryBudgetExhausted", err)
	}
	if !errors.Is(err, errMemberDown) {
		t.Fatalf("err = %v, must still carry the underlying member error", err)
	}
	if dials != 3 {
		t.Fatalf("dialled %d members, want 3 (1 free + 2 budgeted)", dials)
	}
	if st := c.Stats(); st.RetryBudgetExhausted != 1 {
		t.Fatalf("RetryBudgetExhausted = %d, want 1", st.RetryBudgetExhausted)
	}
	if got := c.BudgetTokens(); got != 0 {
		t.Fatalf("tokens = %v, want 0 after exhaustion", got)
	}

	// An empty bucket refuses even the first retry hop.
	dials = 0
	if err := c.DoFunc(context.Background(), canon.Key{}, failingFn(&dials)); !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want immediate ErrRetryBudgetExhausted", err)
	}
	if dials != 1 {
		t.Fatalf("dialled %d, want 1 (first dial is always free)", dials)
	}

	// Two successes at refill 0.5 earn one token back; the third retry
	// hop works again, and the bucket never exceeds its burst capacity.
	okFn := func(string) (bool, error) { return true, nil }
	for i := 0; i < 2; i++ {
		if err := c.DoFunc(context.Background(), canon.Key{}, okFn); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.BudgetTokens(); got != 1 {
		t.Fatalf("tokens = %v, want 1 after two successes at refill 0.5", got)
	}
	dials = 0
	if err := c.DoFunc(context.Background(), canon.Key{}, failingFn(&dials)); !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
	if dials != 2 {
		t.Fatalf("dialled %d, want 2 (one earned retry)", dials)
	}
	for i := 0; i < 100; i++ {
		if err := c.DoFunc(context.Background(), canon.Key{}, okFn); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.BudgetTokens(); got != 2 {
		t.Fatalf("tokens = %v, want the burst capacity 2 (deposits must cap)", got)
	}
}

// TestRetryBudgetDisabledIsFree: RetryBudget 0 never refuses a hop.
func TestRetryBudgetDisabledIsFree(t *testing.T) {
	members := []string{"m0:1", "m1:1", "m2:1", "m3:1", "m4:1", "m5:1"}
	c, _ := newRetryClient(t, members, ClientOptions{})
	for i := 0; i < 10; i++ {
		var dials int
		if err := c.DoFunc(context.Background(), canon.Key{}, failingFn(&dials)); !errors.Is(err, errMemberDown) {
			t.Fatalf("err = %v", err)
		}
		if dials != len(members) {
			t.Fatalf("dialled %d, want %d", dials, len(members))
		}
	}
	if st := c.Stats(); st.RetryBudgetExhausted != 0 {
		t.Fatalf("RetryBudgetExhausted = %d with budgeting disabled", st.RetryBudgetExhausted)
	}
}

// TestRetryStormAgainstBrownedOutMember is the -race storm: many
// goroutines racing one flaky member, all spending and refilling one
// shared budget. Every request must end in exactly one of (success,
// typed budget refusal, member error), and the bucket must stay within
// [0, capacity].
func TestRetryStormAgainstBrownedOutMember(t *testing.T) {
	members := []string{"brown:1", "ok0:1", "ok1:1"}
	const capacity = 50
	c, _ := newRetryClient(t, members, ClientOptions{
		RetryBudget:  capacity,
		RetryBackoff: time.Millisecond, // exercises the shared jitter RNG too
	})

	const goroutines, perG = 16, 25
	var wg sync.WaitGroup
	var succeeded, refused, failed sync.Map
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// The browned-out member fails whenever the walk reaches
				// it first; any other member answers.
				err := c.DoFunc(context.Background(), canon.Key{byte(g), byte(i)}, func(m string) (bool, error) {
					if m == members[0] {
						return false, errMemberDown
					}
					return true, nil
				})
				id := fmt.Sprintf("%d/%d", g, i)
				switch {
				case err == nil:
					succeeded.Store(id, true)
				case errors.Is(err, ErrRetryBudgetExhausted):
					refused.Store(id, true)
				default:
					failed.Store(id, true)
				}
			}
		}(g)
	}
	wg.Wait()

	count := func(m *sync.Map) (n int) {
		m.Range(func(any, any) bool { n++; return true })
		return
	}
	total := count(&succeeded) + count(&refused) + count(&failed)
	if total != goroutines*perG {
		t.Fatalf("accounted %d requests, want %d", total, goroutines*perG)
	}
	if count(&failed) != 0 {
		t.Fatalf("%d requests failed with a non-budget error; with two healthy members they must succeed or be refused", count(&failed))
	}
	if got := c.BudgetTokens(); got < 0 || got > capacity {
		t.Fatalf("tokens = %v, outside [0, %d]", got, capacity)
	}
}
