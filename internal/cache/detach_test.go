package cache_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
)

// TestDoDetachedHitAndLeader: outside of a coalescing race DoDetached is
// exactly Do — the caller leads on a miss and reads the entry on a hit.
func TestDoDetachedHitAndLeader(t *testing.T) {
	c := cache.New(cache.Options{})
	k := key(1)
	v, hit, done, err := c.DoDetached(k, func() (any, int64, error) { return "fresh", 8, nil },
		func(any, error) { t.Error("deliver called without a competing flight") })
	if err != nil || !done || hit || v != "fresh" {
		t.Fatalf("leader DoDetached = (%v, %v, %v, %v), want (fresh, false, true, nil)", v, hit, done, err)
	}
	v, hit, done, err = c.DoDetached(k, func() (any, int64, error) {
		t.Error("compute ran on a warm key")
		return nil, 0, nil
	}, func(any, error) { t.Error("deliver called on a hit") })
	if err != nil || !done || !hit || v != "fresh" {
		t.Fatalf("hit DoDetached = (%v, %v, %v, %v), want (fresh, true, true, nil)", v, hit, done, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 0 coalesced", st)
	}
}

// TestDoDetachedSubscribes: a DoDetached that lands on an in-flight key
// returns immediately (done=false) and its callback fires exactly once with
// the leader's value.
func TestDoDetachedSubscribes(t *testing.T) {
	c := cache.New(cache.Options{})
	k := key(2)
	enter, release := make(chan struct{}), make(chan struct{})
	go func() {
		c.Do(nil, k, func() (any, int64, error) {
			close(enter)
			<-release
			return "led", 8, nil
		})
	}()
	<-enter

	got := make(chan any, 1)
	v, hit, done, err := c.DoDetached(k, func() (any, int64, error) {
		t.Error("subscriber ran compute")
		return nil, 0, nil
	}, func(val any, err error) {
		if err != nil {
			t.Errorf("deliver got error %v", err)
		}
		got <- val
	})
	if err != nil || done || hit || v != nil {
		t.Fatalf("subscribing DoDetached = (%v, %v, %v, %v), want (nil, false, false, nil)", v, hit, done, err)
	}
	select {
	case <-got:
		t.Fatal("deliver fired before the leader settled")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case val := <-got:
		if val != "led" {
			t.Fatalf("delivered %v, want led", val)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deliver never fired")
	}
	if st := c.Stats(); st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", st.Coalesced)
	}
}

// TestDoDetachedLeaderFailure: subscribers see the leader's error, exactly
// once, and nothing is cached.
func TestDoDetachedLeaderFailure(t *testing.T) {
	c := cache.New(cache.Options{})
	k := key(3)
	boom := errors.New("boom")
	enter, release := make(chan struct{}), make(chan struct{})
	go func() {
		c.DoDetached(k, func() (any, int64, error) {
			close(enter)
			<-release
			return nil, 0, boom
		}, nil)
	}()
	<-enter

	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		_, _, done, err := c.DoDetached(k, nil, func(val any, err error) { errs <- err })
		if done || err != nil {
			t.Fatalf("subscriber %d: done=%v err=%v, want pending", i, done, err)
		}
	}
	close(release)
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, boom) {
				t.Fatalf("subscriber saw %v, want boom", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("subscriber never notified")
		}
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("failed computation was cached")
	}
}

// TestPrune drops exactly the entries the keep predicate rejects and counts
// them apart from evictions.
func TestPrune(t *testing.T) {
	c := cache.New(cache.Options{})
	for i := 0; i < 20; i++ {
		store(t, c, key(i), i, 100)
	}
	keepEven := func(k canon.Key) bool { return k[2]%2 == 0 }
	if n := c.Prune(keepEven); n != 10 {
		t.Fatalf("pruned %d entries, want 10", n)
	}
	for i := 0; i < 20; i++ {
		_, ok := c.Get(key(i))
		if want := i%2 == 0; ok != want {
			t.Fatalf("key %d present=%v after prune, want %v", i, ok, want)
		}
	}
	st := c.Stats()
	if st.Pruned != 10 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want Pruned=10 Evictions=0", st)
	}
	if st.Entries != 10 || st.Bytes != 1000 {
		t.Fatalf("contents = %d entries / %d bytes, want 10 / 1000", st.Entries, st.Bytes)
	}
	// Pruning everything empties the cache.
	if n := c.Prune(func(canon.Key) bool { return false }); n != 10 {
		t.Fatalf("second prune removed %d, want 10", n)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("cache not empty after full prune: %+v", st)
	}
}

// TestPruneConcurrentTraffic: prune under concurrent Do traffic neither
// deadlocks nor corrupts the byte accounting.
func TestPruneConcurrentTraffic(t *testing.T) {
	c := cache.New(cache.Options{MaxBytes: 1 << 20})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := key(w*1000 + i%50)
				c.Do(nil, k, func() (any, int64, error) { return i, 64, nil })
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		c.Prune(func(k canon.Key) bool { return k[2]%2 == 0 })
	}
	close(stop)
	wg.Wait()
	st := c.Stats()
	var wantBytes int64 = int64(st.Entries) * 64
	if st.Bytes != wantBytes {
		t.Fatalf("byte accounting drifted: %d entries but %d bytes", st.Entries, st.Bytes)
	}
}
