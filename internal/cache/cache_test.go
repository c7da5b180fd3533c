package cache_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
)

// key derives a distinct canon.Key from an integer.
func key(i int) canon.Key {
	var k canon.Key
	k[0] = byte(i >> 16)
	k[1] = byte(i >> 8)
	k[2] = byte(i)
	k[12] = byte(i * 31)
	return k
}

func TestGetPut(t *testing.T) {
	c := cache.NewSharded(cache.Options{MaxBytes: 1 << 20}, 4)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(key(1), "a", 10)
	if v, ok := c.Get(key(1)); !ok || v != "a" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	c.Put(key(1), "b", 12) // replace in place
	if v, _ := c.Get(key(1)); v != "b" {
		t.Fatalf("after replace Get = %v", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 12 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEviction fills a single shard past its budget and checks the byte
// accounting, the eviction counter and the LRU order (a recently touched
// entry survives over a colder one).
func TestEviction(t *testing.T) {
	// One shard so all keys share one budget and recency list.
	c := cache.NewSharded(cache.Options{MaxBytes: 100}, 1)
	for i := 0; i < 5; i++ {
		c.Put(key(i), i, 25) // 4 fit
	}
	c.Get(key(1)) // refresh 1 so it is the warmest of the survivors
	c.Put(key(5), 5, 25)
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("coldest entry survived eviction")
	}
	if v, ok := c.Get(key(1)); !ok || v != 1 {
		t.Fatal("recently-used entry was evicted")
	}
	st := c.Stats()
	if st.Bytes > 100 {
		t.Fatalf("bytes %d exceed the budget", st.Bytes)
	}
	if st.Evictions < 2 {
		t.Fatalf("evictions = %d, want ≥ 2", st.Evictions)
	}
}

// TestOversizeEntry: a value larger than a whole shard is not stored.
func TestOversizeEntry(t *testing.T) {
	c := cache.NewSharded(cache.Options{MaxBytes: 64}, 2) // 32 per shard
	c.Put(key(1), "big", 1000)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("oversize entry was stored")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDoSingleflight: K concurrent Do calls for one key run the
// computation once; the waiters are counted as coalesced and every caller
// receives the same value.
func TestDoSingleflight(t *testing.T) {
	const waiters = 7
	c := cache.New(cache.Options{})
	var computes atomic.Int64
	release := make(chan struct{})

	results := make(chan string, waiters+1)
	var wg sync.WaitGroup
	for g := 0; g < waiters+1; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), key(1), func() (any, int64, error) {
				computes.Add(1)
				<-release
				return "value", 8, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results <- v.(string)
		}()
	}
	// Wait until every non-leader has attached to the leader's flight,
	// then let the leader finish.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d, want %d", c.Stats().Coalesced, waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)
	for v := range results {
		if v != "value" {
			t.Fatalf("got %q", v)
		}
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times", got)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != waiters {
		t.Fatalf("stats = %+v", st)
	}
	// The stored value now answers straight hits.
	if _, hit, err := c.Do(context.Background(), key(1), func() (any, int64, error) {
		t.Fatal("compute ran on a warm key")
		return nil, 0, nil
	}); err != nil || !hit {
		t.Fatalf("warm Do = hit %v, err %v", hit, err)
	}
}

// TestDoErrorNotCached: a failed computation leaves the key cold, so the
// next Do recomputes.
func TestDoErrorNotCached(t *testing.T) {
	c := cache.New(cache.Options{})
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), key(1), func() (any, int64, error) {
		return nil, 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, hit, err := c.Do(context.Background(), key(1), func() (any, int64, error) {
		return "ok", 4, nil
	})
	if err != nil || hit || v != "ok" {
		t.Fatalf("retry Do = %v, %v, %v", v, hit, err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2", st.Misses)
	}
}

// TestDoWaiterRetriesAfterLeaderFailure: when the leader fails, a waiter
// takes over and computes for itself instead of inheriting the error.
func TestDoWaiterRetriesAfterLeaderFailure(t *testing.T) {
	c := cache.New(cache.Options{})
	release := make(chan struct{})
	leaderErr := errors.New("leader died")

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), key(1), func() (any, int64, error) {
			<-release
			return nil, 0, leaderErr
		})
		leaderDone <- err
	}()
	// Make sure the failing leader owns the flight before the waiter joins,
	// or the "waiter" would win the race and lead a successful flight.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Misses < 1 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started")
		}
		time.Sleep(time.Millisecond)
	}
	waiterDone := make(chan string, 1)
	go func() {
		v, _, err := c.Do(context.Background(), key(1), func() (any, int64, error) {
			return "recovered", 8, nil
		})
		if err != nil {
			t.Error(err)
			waiterDone <- ""
			return
		}
		waiterDone <- v.(string)
	}()
	deadline = time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never attached")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-leaderDone; !errors.Is(err, leaderErr) {
		t.Fatalf("leader err = %v", err)
	}
	if v := <-waiterDone; v != "recovered" {
		t.Fatalf("waiter got %q", v)
	}
}

// TestDoWaiterCancellation: a waiter whose context expires stops waiting
// with the context error while the leader keeps computing.
func TestDoWaiterCancellation(t *testing.T) {
	c := cache.New(cache.Options{})
	release := make(chan struct{})
	go func() {
		c.Do(context.Background(), key(1), func() (any, int64, error) {
			<-release
			return "late", 8, nil
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Misses < 1 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, key(1), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v", err)
	}
	close(release)
}

// TestConcurrentDo hammers a small cache from many goroutines (exercised
// under -race in CI): values must always be consistent with their key and
// the byte budget must hold afterwards.
func TestConcurrentDo(t *testing.T) {
	c := cache.NewSharded(cache.Options{MaxBytes: 512}, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 32
				v, _, err := c.Do(context.Background(), key(k), func() (any, int64, error) {
					return fmt.Sprintf("v%d", k), 40, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v.(string) != fmt.Sprintf("v%d", k) {
					t.Errorf("key %d returned %v", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > 512 {
		t.Fatalf("bytes %d exceed the budget", st.Bytes)
	}
	if st.Hits+st.Misses+st.Coalesced != 8*200 {
		t.Fatalf("counter sum %d != %d lookups (stats %+v)", st.Hits+st.Misses+st.Coalesced, 8*200, st)
	}
}

// TestLoadIsNotALookup: Load reads the stored value but counts neither a
// hit nor a miss, so a delta's base fetch leaves the lookup invariant
// Hits + Misses + Coalesced == lookups intact.
func TestLoadIsNotALookup(t *testing.T) {
	c := cache.New(cache.Options{})
	k := key(1)
	if _, ok := c.Load(k); ok {
		t.Fatal("Load found a value in an empty cache")
	}
	c.Put(k, "v", 8)
	if v, ok := c.Load(k); !ok || v != "v" {
		t.Fatalf("Load = (%v, %v), want (v, true)", v, ok)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Coalesced != 0 {
		t.Fatalf("Load moved the lookup counters: %+v", st)
	}
}
