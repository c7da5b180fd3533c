package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/canon"
	"repro/internal/mmlp"
	"repro/internal/obs"
)

// DefaultCooldown is how long a member stays marked down after a transport
// failure before the client routes to it again. Long enough that a crashed
// shard is not hammered on every request, short enough that a restarted one
// rejoins within a typical health-check interval.
const DefaultCooldown = 5 * time.Second

// DefaultDialTimeout bounds connection establishment to a member. A member
// that silently drops packets (no RST — a dead host, a firewall change)
// must fail the dial quickly so Forward can mark it down and the caller
// can fail over; without this bound the kernel's connect timeout (minutes)
// would stall every request routed to the black hole. Only the dial is
// bounded: response time is not, because a solve legitimately computes for
// as long as the instance demands before the first header is written.
const DefaultDialTimeout = 2 * time.Second

// ErrCutoverInProgress is returned by Propose while a previous cutover is
// still draining. Ring changes are serialized: the drain invariant — every
// request runs against exactly one of (old, new) and the old ring empties
// monotonically — holds for one transition at a time.
var ErrCutoverInProgress = errors.New("shard: ring cutover already in progress")

// ErrRetryBudgetExhausted is returned by DoFuncOn when a retry hop is due
// but the token bucket is empty: the fleet is failing broadly enough that
// retrying would amplify the outage instead of riding it out. The serving
// layer maps it to 503 — fail fast, let the client back off.
var ErrRetryBudgetExhausted = errors.New("shard: retry budget exhausted")

// Retry-backoff shape: with backoff enabled, the first retry hop waits
// ~DefaultRetryBackoff (the router's -retry-backoff default), doubling per
// hop up to DefaultRetryBackoffMax, each wait half fixed and half
// deterministic jitter.
const (
	DefaultRetryBackoff    = 25 * time.Millisecond
	DefaultRetryBackoffMax = time.Second
)

// DefaultRetryRefill is the fraction of a retry token returned to the
// budget per successful request. At 0.1, sustaining one retry per ten
// successes is free; anything worse eats into the burst.
const DefaultRetryRefill = 0.1

// RingVersion is one immutable generation of the fleet topology: a ring
// plus a version number and the count of requests still pinned to it. The
// client hands every request a *RingVersion via Acquire, so a cutover can
// route new work by the new assignment while in-flight work drains on the
// old one — no request ever sees a half-applied topology.
type RingVersion struct {
	version  uint64
	ring     *Ring
	inflight atomic.Int64
}

// Version returns the generation number (the first ring is version 1).
func (rv *RingVersion) Version() uint64 { return rv.version }

// Ring returns the immutable ring of this generation.
func (rv *RingVersion) Ring() *Ring { return rv.ring }

// Inflight returns the number of requests currently pinned to this
// generation.
func (rv *RingVersion) Inflight() int64 { return rv.inflight.Load() }

// Cutover is a snapshot of an in-progress ring transition, for the admin
// surface: requests admitted before the flip drain on From while new ones
// route by To.
type Cutover struct {
	// From/To are the generation numbers of the draining and current rings.
	From, To uint64
	// FromMembers/ToMembers are the member sets of the two rings.
	FromMembers, ToMembers []string
	// Draining is the number of requests still pinned to the old ring.
	Draining int64
}

// ClientOptions configures a Client.
type ClientOptions struct {
	// Cooldown is how long a member stays down after a transport failure
	// (0 = DefaultCooldown).
	Cooldown time.Duration
	// Replication is the number of ring successors that hold each key
	// (≤ 0 means 1, i.e. no replication). DoFuncOn retries target the
	// replica set first: any of the R successors can answer a key from a
	// warm cache, so a dead primary costs a hop, not a recompute.
	Replication int
	// OnCutoverDone, when set, runs (on its own goroutine) after the last
	// request pinned to an old ring drains following a Propose. The router
	// uses it to tell shards to prune cache entries they no longer own.
	OnCutoverDone func(old, new *Ring)
	// RetryBudget bounds retry amplification: a token bucket holding this
	// many tokens (the burst), where every retry hop — any dial after a
	// request's first — spends one, and every successful request deposits
	// DefaultRetryRefill back, up to the burst. When a hop is due and the
	// bucket is empty the request fails fast with ErrRetryBudgetExhausted,
	// so a fleet-wide brownout degrades into fast 503s instead of a retry
	// storm that multiplies the load on whatever is still standing. 0
	// disables budgeting (every retry is free, the pre-budget behavior).
	RetryBudget int
	// RetryBackoff enables capped exponential backoff between replica
	// attempts: retry hop n waits base<<(n-1) capped at
	// DefaultRetryBackoffMax, half fixed and half jitter drawn from a
	// fixed-seed stream (so a run replays identically). 0 disables the
	// sleeps — retries remain immediate, which is what in-process tests
	// want.
	RetryBackoff time.Duration
}

// Client routes keys to fleet members and forwards HTTP requests to them.
// It layers mutable health state over immutable Rings: a member that
// fails at the transport level (connection refused, reset, timeout — not an
// HTTP error status, which proves the shard is alive) is marked down for a
// cooldown and skipped by OwnerOn and DoOn until it expires or a later
// forward succeeds.
//
// The topology itself is versioned: the client starts at ring version 1 and
// Propose installs version n+1 while version n drains (see RingVersion).
// Callers that make several routing decisions for one request — the router's
// batch handler groups jobs by owner, forwards, then re-forwards stragglers —
// pin a generation with Acquire/Release so all decisions agree. Safe for
// concurrent use.
type Client struct {
	hc          *http.Client
	cooldown    time.Duration
	replication int
	now         func() time.Time                          // injectable for tests
	sleep       func(context.Context, time.Duration) bool // injectable for tests; false = ctx done

	// Retry budget (milli-token accounting so fractional refills need no
	// floats on the hot path): budgetCap == 0 disables.
	budgetCap    int64 // capacity in milli-tokens
	budgetRefill int64 // milli-tokens deposited per success
	budgetTokens atomic.Int64

	// Backoff shape; backoffBase == 0 disables the sleeps.
	backoffBase, backoffMax time.Duration
	rngMu                   sync.Mutex // rand.Rand is not goroutine-safe
	rng                     *rand.Rand

	cur      atomic.Pointer[RingVersion]
	draining atomic.Pointer[RingVersion] // non-nil while a cutover drains
	cutMu    sync.Mutex                  // serializes Propose and cutover completion
	onDone   func(old, new *Ring)

	mu        sync.Mutex
	downUntil map[string]time.Time

	routed, forwarded, retried, shardDown, budgetExhausted atomic.Int64
	forwardHist                                            obs.Histogram
}

// NewClient builds a client over ring, which becomes generation 1.
func NewClient(ring *Ring, o ClientOptions) *Client {
	if o.Cooldown <= 0 {
		o.Cooldown = DefaultCooldown
	}
	if o.Replication <= 0 {
		o.Replication = 1
	}
	// A keep-alive transport with a generous idle pool per shard, so steady
	// traffic reuses connections instead of re-dialling, and a bounded dial
	// so a blackholed member fails over promptly.
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: DefaultDialTimeout, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:        4 * len(ring.Members()),
		MaxIdleConnsPerHost: 4,
		IdleConnTimeout:     90 * time.Second,
	}
	c := &Client{
		hc:           &http.Client{Transport: tr},
		cooldown:     o.Cooldown,
		replication:  o.Replication,
		now:          time.Now,
		sleep:        sleepCtx,
		budgetRefill: int64(DefaultRetryRefill * 1000),
		backoffBase:  o.RetryBackoff,
		backoffMax:   DefaultRetryBackoffMax,
		rng:          rand.New(rand.NewSource(1)),
		onDone:       o.OnCutoverDone,
		downUntil:    make(map[string]time.Time),
	}
	if o.RetryBudget > 0 {
		c.budgetCap = int64(o.RetryBudget) * 1000
		c.budgetTokens.Store(c.budgetCap) // the bucket starts full
	}
	c.cur.Store(&RingVersion{version: 1, ring: ring})
	return c
}

// sleepCtx is the production sleep: waits d or until ctx is done,
// reporting whether the full wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Ring returns the current generation's ring.
func (c *Client) Ring() *Ring { return c.cur.Load().ring }

// Version returns the current generation number.
func (c *Client) Version() uint64 { return c.cur.Load().version }

// Replication returns the configured replica-set size.
func (c *Client) Replication() int { return c.replication }

// Acquire pins the caller to the current ring generation; every routing
// decision made against the returned RingVersion sees one consistent
// topology. The caller must Release exactly once — a cutover completes
// only when the old generation's pin count drains to zero.
func (c *Client) Acquire() *RingVersion {
	for {
		rv := c.cur.Load()
		rv.inflight.Add(1)
		if c.cur.Load() == rv {
			return rv
		}
		// A Propose slipped between the load and the increment; the pin
		// may have landed on a generation that is already draining (or
		// even finished). Undo it and pin the new current instead.
		c.Release(rv)
	}
}

// Release unpins a generation acquired with Acquire. Releasing the last
// pin of a draining generation completes the cutover.
func (c *Client) Release(rv *RingVersion) {
	if rv.inflight.Add(-1) == 0 && c.draining.Load() == rv {
		c.finishCutover(rv)
	}
}

// finishCutover retires old if it is still the draining generation and
// truly idle, then fires the completion callback.
func (c *Client) finishCutover(old *RingVersion) {
	c.cutMu.Lock()
	if c.draining.Load() != old || old.inflight.Load() != 0 {
		c.cutMu.Unlock()
		return
	}
	c.draining.Store(nil)
	cur := c.cur.Load()
	done := c.onDone
	c.cutMu.Unlock()
	if done != nil {
		go done(old.ring, cur.ring)
	}
}

// Propose installs a new member set as the next ring generation. New
// Acquires route by the new assignment immediately; requests pinned to the
// old generation drain on the old one, and when the last drains the
// cutover completes (OnCutoverDone fires). Returns ErrCutoverInProgress
// while a previous transition is still draining — topology changes are
// applied one at a time.
func (c *Client) Propose(members []string) (*RingVersion, error) {
	c.cutMu.Lock()
	if c.draining.Load() != nil {
		c.cutMu.Unlock()
		return nil, ErrCutoverInProgress
	}
	cur := c.cur.Load()
	ring, err := New(members, cur.ring.Replicas())
	if err != nil {
		c.cutMu.Unlock()
		return nil, err
	}
	next := &RingVersion{version: cur.version + 1, ring: ring}
	c.draining.Store(cur)
	c.cur.Store(next)
	c.cutMu.Unlock()
	if cur.inflight.Load() == 0 {
		c.finishCutover(cur)
	}
	return next, nil
}

// Draining snapshots the in-progress cutover, or nil when the topology is
// stable.
func (c *Client) Draining() *Cutover {
	old := c.draining.Load()
	if old == nil {
		return nil
	}
	cur := c.cur.Load()
	return &Cutover{
		From:        old.version,
		To:          cur.version,
		FromMembers: old.ring.Members(),
		ToMembers:   cur.ring.Members(),
		Draining:    old.inflight.Load(),
	}
}

// Stats snapshots the client's routing view as the router's stats block:
// the topology (members, healthy members, generation, drain, replication),
// the routing counters and the forward-latency histogram. The router adds
// the counters it keeps itself.
func (c *Client) Stats() mmlp.RouterStats {
	cur := c.cur.Load()
	return mmlp.RouterStats{
		Shards:               int64(len(cur.ring.Members())),
		Healthy:              int64(len(c.Healthy())),
		RingVersion:          int64(cur.version),
		Draining:             c.Draining() != nil,
		Replication:          c.replication,
		Routed:               c.routed.Load(),
		Forwarded:            c.forwarded.Load(),
		Retried:              c.retried.Load(),
		ShardDown:            c.shardDown.Load(),
		RetryBudgetExhausted: c.budgetExhausted.Load(),
		Forward:              c.forwardHist.Snapshot(),
	}
}

// budgetWithdraw spends one retry token, reporting whether one was
// available. Always true when budgeting is disabled.
func (c *Client) budgetWithdraw() bool {
	if c.budgetCap == 0 {
		return true
	}
	for {
		cur := c.budgetTokens.Load()
		if cur < 1000 {
			return false
		}
		if c.budgetTokens.CompareAndSwap(cur, cur-1000) {
			return true
		}
	}
}

// budgetDeposit returns the per-success refill to the bucket, up to the
// burst capacity.
func (c *Client) budgetDeposit() {
	if c.budgetCap == 0 {
		return
	}
	for {
		cur := c.budgetTokens.Load()
		next := cur + c.budgetRefill
		if next > c.budgetCap {
			next = c.budgetCap
		}
		if next == cur || c.budgetTokens.CompareAndSwap(cur, next) {
			return
		}
	}
}

// backoff waits before retry hop n (n ≥ 1): base<<(n-1) capped at max,
// half fixed plus half deterministic jitter — full-deterministic waits
// would re-synchronize the very thundering herd the backoff is spreading
// out. Reports false when ctx expired before the wait elapsed. No-op
// when backoff is disabled.
func (c *Client) backoff(ctx context.Context, hop int) bool {
	if c.backoffBase <= 0 {
		return true
	}
	d := c.backoffMax
	if shift := uint(hop - 1); shift < 20 { // past 2^20×base it's the cap regardless
		if scaled := c.backoffBase << shift; scaled < d {
			d = scaled
		}
	}
	half := d / 2
	c.rngMu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(half) + 1))
	c.rngMu.Unlock()
	return c.sleep(ctx, half+jitter)
}

// down reports whether m is currently marked down.
func (c *Client) down(m string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	until, ok := c.downUntil[m]
	if !ok {
		return false
	}
	if c.now().After(until) {
		delete(c.downUntil, m)
		return false
	}
	return true
}

// Down reports whether member is currently marked down. Exported for
// callers that want to skip optional traffic (replica warming) to a corpse.
func (c *Client) Down(member string) bool { return c.down(member) }

// markDown records a transport failure against m. A failure observed while
// m is already inside an active cooldown window is not a new outage and
// must not slide the window forward: DoFuncOn's desperation passes re-probe
// cooled-down members on every request, so extending the window on each
// failed probe would keep a member that recovers on schedule routed-around
// for far longer than the configured cooldown. A failure after the window
// has lapsed (stale entry not yet swept by down) is a fresh transition and
// both restarts the window and counts in ShardDown.
func (c *Client) markDown(m string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if until, was := c.downUntil[m]; was && now.Before(until) {
		return
	}
	c.shardDown.Add(1)
	c.downUntil[m] = now.Add(c.cooldown)
}

// markUp clears m's down state after a successful forward.
func (c *Client) markUp(m string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.downUntil, m)
}

// Healthy returns the current ring's members not currently marked down, in
// canonical order.
func (c *Client) Healthy() []string {
	members := c.Ring().Members()
	out := make([]string, 0, len(members))
	for _, m := range members {
		if !c.down(m) {
			out = append(out, m)
		}
	}
	return out
}

// OwnerOn returns the healthy member that owns k on generation rv: k's
// ring owner when it is up, otherwise the first healthy successor. When
// every member is down the plain ring owner is returned — the caller's
// forward will fail fast and surface the outage. Routing around a down
// owner trades strict cache partitioning for availability: the stand-in
// replica may cache keys the owner also holds, and ownership snaps back
// when the owner recovers.
func (c *Client) OwnerOn(rv *RingVersion, k canon.Key) string {
	c.routed.Add(1)
	// Fast path: the ring owner is healthy (the steady state). OwnerOn runs
	// once per routed job, so it must not pay the successor walk's
	// allocations just to take its first element.
	owner := rv.ring.Owner(k)
	if !c.down(owner) {
		return owner
	}
	succ := rv.ring.Successors(k, len(rv.ring.Members()))
	for _, m := range succ {
		if !c.down(m) {
			return m
		}
	}
	return succ[0]
}

// ReplicaSet returns the members that hold k on generation rv: its first
// min(Replication, fleet size) distinct ring successors, owner first. Any
// of them can answer k from a warm cache once write-through has run.
func (c *Client) ReplicaSet(rv *RingVersion, k canon.Key) []string {
	return rv.ring.Successors(k, c.replication)
}

// Forward POSTs body to one member and returns the response. A transport
// failure marks the member down; an HTTP response of any status marks it
// up. The caller owns the response body. A request ID stashed in ctx with
// obs.WithTraceID rides along as the X-Mmlp-Trace header, so one ID
// follows the request from the router into the owning shard's trace and
// slow-log; successful forwards feed the forward-latency histogram
// (sent → response headers received).
func (c *Client) Forward(ctx context.Context, member, path, contentType string, body []byte) (*http.Response, error) {
	c.forwarded.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+member+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	// Propagate the remaining time budget so the shard can abandon work
	// that can no longer make it back in time. Clamped at 1ms: an already
	// expired ctx fails the Do below on its own, and 0 would read as "no
	// deadline" on the far side.
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(obs.DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() == nil { // the shard failed, not the caller
			c.markDown(member)
		}
		return nil, err
	}
	c.forwardHist.Observe(time.Since(start))
	c.markUp(member)
	return resp, nil
}

// Get fetches path from one member (health probes, /statsz scrapes). Like
// Forward it maintains the member's health state.
func (c *Client) Get(ctx context.Context, member, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+member+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.markDown(member)
		}
		return nil, err
	}
	c.markUp(member)
	return resp, nil
}

// DoFuncOn drives fn against k's members on generation rv until one
// handles the request. fn returns done=true when the request was handled
// on that member — even partially, so a broken mid-stream response is not
// replayed wholesale — and done=false with an error to advance. fn is
// expected to reach the member through Forward/Get so transport failures
// feed the health state.
//
// The walk targets the replica set first: k's first Replication distinct
// ring successors all hold k after write-through, so any of them answers
// from a warm cache. Order of passes: healthy replicas in ring order, then
// healthy non-replicas (an availability backstop that recomputes rather
// than fails), then cooled-down replicas (they may have recovered, and a
// fully-down fleet should surface its real transport error rather than a
// fabricated one), then cooled-down non-replicas. With Replication 1 this
// is exactly the classic order: healthy members in ring order, then the
// cooled-down ones. Each member is dialled at most once. Returns fn's
// terminal error, or the last per-replica error when every member failed.
func (c *Client) DoFuncOn(ctx context.Context, rv *RingVersion, k canon.Key, fn func(member string) (done bool, err error)) error {
	ring := rv.ring
	members := ring.Successors(k, len(ring.Members()))
	rep := c.replication
	if rep > len(members) {
		rep = len(members)
	}
	tried := make([]bool, len(members))
	var lastErr error
	dials := 0
	for pass := 0; pass < 4; pass++ {
		lo, hi := 0, rep
		if pass == 1 || pass == 3 {
			lo, hi = rep, len(members)
		}
		probeCooled := pass >= 2
		for i := lo; i < hi; i++ {
			if tried[i] {
				continue
			}
			if !probeCooled && c.down(members[i]) {
				continue
			}
			tried[i] = true
			if dials > 0 {
				// A retry hop: it must clear the budget, then wait out
				// the backoff. A budget refusal is terminal — retrying
				// into a broad failure amplifies it — and does not count
				// in Retried (no forward happens).
				if !c.budgetWithdraw() {
					c.budgetExhausted.Add(1)
					if lastErr != nil {
						return fmt.Errorf("%w (after %d attempts): %w", ErrRetryBudgetExhausted, dials, lastErr)
					}
					return ErrRetryBudgetExhausted
				}
				if !c.backoff(ctx, dials) {
					if lastErr != nil {
						return lastErr
					}
					return ctx.Err()
				}
				c.retried.Add(1)
			}
			dials++
			done, err := fn(members[i])
			if done {
				if err == nil {
					c.budgetDeposit()
				}
				return err
			}
			lastErr = err
			if ctx.Err() != nil {
				return lastErr
			}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("shard: no members")
	}
	return lastErr
}

// DoOn forwards body to k's owner on generation rv, retrying through the
// replica set (then the rest of the ring) when a member fails at the
// transport level. The solver is a pure function of the request, so
// re-sending to a different shard is always safe. Returns the first HTTP
// response together with the member that produced it, or the last
// transport error once every member has failed.
func (c *Client) DoOn(ctx context.Context, rv *RingVersion, k canon.Key, path, contentType string, body []byte) (*http.Response, string, error) {
	var resp *http.Response
	var member string
	err := c.DoFuncOn(ctx, rv, k, func(m string) (bool, error) {
		r, err := c.Forward(ctx, m, path, contentType, body)
		if err != nil {
			return false, err
		}
		resp, member = r, m
		return true, nil
	})
	if resp == nil {
		return nil, "", err
	}
	return resp, member, nil
}
