package cache_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/canon"
)

// TestCharge: Charge adds to a live entry's cost and evicts to budget,
// but never brings back an evicted entry or charges a replaced value.
func TestCharge(t *testing.T) {
	c := cache.New(cache.Options{MaxBytes: 100})
	a, b := new(int), new(int)
	store(t, c, key(1), a, 30)
	store(t, c, key(2), b, 30)
	c.Charge(key(1), a, 20)
	if st := c.Stats(); st.Bytes != 80 || st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("after charging a live entry: %+v", st)
	}

	// Over budget: the coldest entry goes, here the charged one itself.
	c.Charge(key(1), a, 30)
	if st := c.Stats(); st.Bytes != 30 || st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("after charging past the budget: %+v", st)
	}
	if _, ok := c.Load(key(1)); ok {
		t.Fatal("the entry that outgrew the budget is still stored")
	}

	// An evicted entry stays evicted, and a key now holding another value
	// is not charged for the old one.
	c.Charge(key(1), a, 10)
	c.Prune(func(k canon.Key) bool { return k != key(2) })
	store(t, c, key(2), new(int), 30)
	c.Charge(key(2), b, 10)
	if st := c.Stats(); st.Bytes != 30 || st.Entries != 1 {
		t.Fatalf("stale charges moved the cache: %+v", st)
	}
}
