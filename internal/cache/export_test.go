package cache

// NewSharded is New with n shards, a power of two, for tests that pin
// per-shard budgets.
func NewSharded(o Options, n int) *Cache { return newSharded(o, n) }
