package mmlp

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// This file defines the wire format of the serving layer (cmd/mmlpserve).
// The types are purely syntactic — engine names and statuses travel as
// strings — so the package stays free of solver dependencies. A request's
// settings leave the wire through SolveRequest.Options, as the
// SolveOptions the engine runs on and the canon key covers; the batch
// package turns requests into jobs and results into responses.

// Engine names accepted on the wire.
const (
	// EngineLocal is the fast centralised engine (the default).
	EngineLocal = "local"
	// EngineDist is the synchronous message-passing protocol with
	// anonymous view gathering.
	EngineDist = "dist"
	// EngineDistCompact is the identifier-based record-gossip protocol.
	EngineDistCompact = "dist-compact"
)

// Content types negotiated on /v1/solve and /v1/batch. JSON is the
// default; the canon types carry the binary wire format defined in
// internal/canon (solve payloads, batch frames, result frames).
const (
	ContentTypeJSON         = "application/json"
	ContentTypeCanon        = "application/x-mmlp-canon"
	ContentTypeCanonBatch   = "application/x-mmlp-canon-batch"
	ContentTypeCanonResults = "application/x-mmlp-canon-results"
	ContentTypeNDJSON       = "application/x-ndjson"
)

// SolveRequest is the body of POST /v1/solve and one element of a
// BatchRequest: an instance and, under their wire names, the fields of its
// SolveOptions, which Options reads.
type SolveRequest struct {
	// Instance is the max-min LP to solve.
	Instance *Instance `json:"instance"`
	// Engine names SolveOptions.Engine ("" means EngineLocal).
	Engine string `json:"engine,omitempty"`
	// R, BinIters, DisableSpecialCases and SelfCheck are the SolveOptions
	// fields of the same names.
	R                   int  `json:"r,omitempty"`
	BinIters            int  `json:"bin_iters,omitempty"`
	DisableSpecialCases bool `json:"disable_special_cases,omitempty"`
	SelfCheck           bool `json:"self_check,omitempty"`
}

// MaxWireR bounds the shifting parameter accepted over HTTP. R=64 already
// gives a guarantee within 1.6% of the locality threshold — far beyond any
// practical setting (the experiments use R ≤ 6) — while keeping the Θ(R)
// per-request memory and rounds small.
const MaxWireR = 64

// MaxWireBinIters bounds bin_iters accepted over HTTP. The binary search
// converges to the last representable bit in well under 100 iterations;
// a million is absurd headroom, while still capping the per-agent work a
// small request can demand.
const MaxWireBinIters = 1 << 20

// MaxWireAgents bounds num_agents accepted over HTTP. The solver allocates
// several O(NumAgents) slices before any row is read, so the count must be
// capped independently of the body size: a ~100-byte request could
// otherwise declare billions of agents. Useful agents appear in rows (the
// rest are preprocessed away), and the body limit keeps row counts far
// below this.
const MaxWireAgents = 1 << 20

// Options vets the request envelope and returns its settings,
// normalized: the instance present and within MaxWireAgents, the engine
// name known, the settings within CheckWire's bounds. Every failure wraps
// ErrInvalid. The instance's contents are left to the solve pipeline,
// which validates them exactly once.
func (r *SolveRequest) Options() (SolveOptions, error) {
	if r.Instance == nil {
		return SolveOptions{}, fmt.Errorf("%w: missing instance", ErrInvalid)
	}
	if r.Instance.NumAgents > MaxWireAgents {
		return SolveOptions{}, fmt.Errorf("%w: num_agents %d exceeds the serving limit %d",
			ErrInvalid, r.Instance.NumAgents, MaxWireAgents)
	}
	eng, err := ParseEngine(r.Engine)
	if err != nil {
		return SolveOptions{}, err
	}
	o := SolveOptions{Engine: eng, R: r.R, BinIters: r.BinIters,
		DisableSpecialCases: r.DisableSpecialCases, SelfCheck: r.SelfCheck}.Normalized()
	if err := o.CheckWire(); err != nil {
		return SolveOptions{}, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	return o, nil
}

// SolveResponse is the body of a successful POST /v1/solve and the payload
// of one batch NDJSON line.
type SolveResponse struct {
	// Status is the solution status ("approximate", "optimal", "unbounded",
	// "zero-optimum").
	Status string `json:"status"`
	// X is the feasible assignment (omitted for unbounded instances).
	X []float64 `json:"x,omitempty"`
	// Utility is ω(X) on the input instance.
	Utility float64 `json:"utility"`
	// UpperBound certifies optimum ≤ UpperBound when positive.
	UpperBound float64 `json:"upper_bound"`
	// Rounds/Messages/Bytes report the traffic of a distributed run and are
	// omitted for the centralised engine.
	Rounds   int `json:"rounds,omitempty"`
	Messages int `json:"messages,omitempty"`
	Bytes    int `json:"bytes,omitempty"`
	// LatencyMS is the server-side solve time in milliseconds.
	LatencyMS float64 `json:"latency_ms"`
	// Cached reports that the result was answered from the server's result
	// cache (bit-identical to a fresh solve); omitted when false.
	Cached bool `json:"cached,omitempty"`
	// Trace is the opt-in per-stage latency breakdown (?trace=1 on
	// /v1/solve): stage name → milliseconds. The encode stage cannot
	// appear in its own response; it is observed into the histograms and
	// the slow-log instead.
	Trace map[string]float64 `json:"trace,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	// Jobs lists the instances to solve; engines may be mixed.
	Jobs []SolveRequest `json:"jobs"`
}

// BatchItem is one NDJSON line of the POST /v1/batch response stream.
// Lines are emitted as jobs complete, so they arrive in completion order;
// Index ties each line back to its position in the request.
type BatchItem struct {
	// Index is the job's position in BatchRequest.Jobs.
	Index int `json:"index"`
	// Error is set when this job failed; the other fields are then zero.
	Error string `json:"error,omitempty"`
	SolveResponse
}

// Machine-readable error codes, one per failure class. Every non-2xx
// response from mmlpserve and mmlprouter carries exactly one of these, so
// clients can branch on the code instead of parsing English.
const (
	// ErrCodeInvalidArgument (400): the request body or parameters are
	// malformed or out of range.
	ErrCodeInvalidArgument = "invalid_argument"
	// ErrCodeBaseUnknown (404): a delta request named a base key no shard
	// holds; the client should fall back to a full solve.
	ErrCodeBaseUnknown = "base_unknown"
	// ErrCodeNotFound (404): no handler is registered for the path.
	ErrCodeNotFound = "not_found"
	// ErrCodeMethodNotAllowed (405): the path exists but not for this verb.
	ErrCodeMethodNotAllowed = "method_not_allowed"
	// ErrCodeConflict (409): an admin operation collided with one in
	// progress (e.g. a ring cutover still draining); Retry-After hints when
	// to retry.
	ErrCodeConflict = "conflict"
	// ErrCodeBodyTooLarge (413): the body exceeds the configured limit.
	ErrCodeBodyTooLarge = "body_too_large"
	// ErrCodeOverloaded (429): admission control shed the request;
	// Retry-After carries the backoff hint.
	ErrCodeOverloaded = "overloaded"
	// ErrCodeInternal (500): the solve failed for a reason that is not the
	// client's fault.
	ErrCodeInternal = "internal"
	// ErrCodeBadGateway (502): the router could not obtain an answer from
	// any replica of the owning shard.
	ErrCodeBadGateway = "bad_gateway"
	// ErrCodeUnavailable (503): the process is shutting down, the retry
	// budget is exhausted, or the request was cancelled.
	ErrCodeUnavailable = "unavailable"
	// ErrCodeDeadlineExceeded (504): the propagated deadline expired while
	// the job was queued or running.
	ErrCodeDeadlineExceeded = "deadline_exceeded"
)

// ErrorDetail is the payload of the unified error envelope.
type ErrorDetail struct {
	// Code is one of the ErrCode constants; stable across releases.
	Code string `json:"code"`
	// Message is the human-readable detail; not stable.
	Message string `json:"message"`
}

// ErrorResponse is the body of every non-2xx serving response, from both
// mmlpserve and mmlprouter: {"error":{"code":"…","message":"…"}}.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// StatsRaw is the stats block of one mmlpserve process — the body of GET
// /statsz (with or without ?raw=1, an accepted legacy spelling) — and,
// summed with Add, of a whole fleet. It is the one stats type: the batch
// pool snapshots into it, SolveBatch returns it, and the shard router
// scrapes and merges it. Counters are exact integers and latencies are
// nanoseconds, so fleet totals sum without rounding drift.
//
// Every metric is declared once, in statsMetrics and cacheMetrics below:
// Add merges by that declaration and WriteMetrics renders /metrics from
// it. The remaining fields are derived views, not metrics.
type StatsRaw struct {
	// Workers is the fixed pool size (summed across a fleet).
	Workers int64 `json:"workers"`
	// Jobs counts completed jobs, Errors the subset that failed (including
	// jobs cancelled before they started).
	Jobs   int64 `json:"jobs"`
	Errors int64 `json:"errors"`
	// UptimeNS is the pool's age (a fleet keeps the oldest). P50NS/P99NS
	// are quantiles of the Solve histogram, written by DeriveQuantiles —
	// per process on a shard's block, from the merged histogram on the
	// fleet's. MaxNS is the slowest successful solve.
	UptimeNS int64 `json:"uptime_ns"`
	P50NS    int64 `json:"p50_ns"`
	P99NS    int64 `json:"p99_ns"`
	MaxNS    int64 `json:"max_ns"`
	// AllocsPerJob is the process-wide heap allocation count per completed
	// job; a fleet averages it job-weighted.
	AllocsPerJob float64 `json:"allocs_per_job"`
	// Shed counts submissions refused at admission (full queue under
	// -shed; answered 429 and never queued — not part of Jobs), and
	// DeadlineExpired the jobs whose propagated deadline passed while they
	// waited in the queue (answered 504; part of Jobs and Errors). The
	// offered load on a shard is therefore Jobs + Shed.
	Shed            int64 `json:"shed,omitempty"`
	DeadlineExpired int64 `json:"deadline_expired,omitempty"`
	// DeltaHits counts delta jobs answered from the result cache (the
	// edited instance was already solved), DeltaMisses the ones that priced
	// the edit. DirtyAgents totals the agents whose kernel value was
	// recomputed across all priced deltas, so DirtyAgents/DeltaMisses is
	// the average edit ball size.
	DeltaHits   int64 `json:"delta_hits,omitempty"`
	DeltaMisses int64 `json:"delta_misses,omitempty"`
	DirtyAgents int64 `json:"dirty_agents,omitempty"`
	// FaultsInjected counts faults fired by the -fault-spec chaos layer;
	// always zero in production (the layer is off by default).
	FaultsInjected int64 `json:"faults_injected,omitempty"`
	// Cache carries the result-cache counters; nil when caching is disabled.
	Cache *CacheStatsRaw `json:"cache,omitempty"`
	// Solve is the all-time histogram of successful solve latency; Stages
	// maps pipeline stage names (canonicalize, hash, cache_lookup,
	// queue_wait, transform, kernel, back_map, encode, ...) to their
	// histograms, absent where a stage was never observed. The bucket
	// layout is fixed fleet-wide, so Add merges them bucket-wise and fleet
	// quantiles are true quantiles.
	Solve  *obs.HistRaw            `json:"solve_hist,omitempty"`
	Stages map[string]*obs.HistRaw `json:"stage_hist,omitempty"`
}

// CacheStatsRaw is one result cache's counters, as internal/cache counts
// them and as they travel inside StatsRaw.
//
// Hits counts lookups answered from a stored entry; Misses counts lookups
// that found nothing stored (and ran the computation). Coalesced counts
// callers that attached to another caller's in-flight computation (at
// most once per call, however often it retries) — they receive the shared
// result and are counted here, not under Hits. While every flight
// succeeds, Hits + Misses + Coalesced equals the number of lookups; a call
// that waits on a flight that then fails retries and is additionally
// counted by its final outcome. A delta's fetch of its base record is not
// a lookup and counts nowhere, so each delta counts exactly once, under
// its edited key.
type CacheStatsRaw struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	// Evictions counts entries removed to honour the byte budget; Pruned
	// those removed because a ring cutover moved their key to another
	// shard, kept apart so budget pressure and ownership changes stay
	// distinguishable.
	Evictions int64 `json:"evictions"`
	Pruned    int64 `json:"pruned"`
	// Entries and Bytes describe the current contents; MaxBytes echoes the
	// configured budget. Entries summed across a routed fleet equals the
	// number of distinct canonical keys solved, because consistent hashing
	// stores every key on exactly one shard.
	Entries  int64 `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// statsMetrics declares the metrics of a StatsRaw block.
var statsMetrics = []obs.Metric[StatsRaw]{
	{Name: "mmlp_jobs_total", Kind: obs.Counter, Help: "Completed jobs.",
		Int: func(s *StatsRaw) *int64 { return &s.Jobs }},
	{Name: "mmlp_errors_total", Kind: obs.Counter, Help: "Completed jobs that failed or were cancelled.",
		Int: func(s *StatsRaw) *int64 { return &s.Errors }},
	{Name: "mmlp_shed_total", Kind: obs.Counter, Help: "Submissions refused at admission on a full queue (HTTP 429).",
		Int: func(s *StatsRaw) *int64 { return &s.Shed }},
	{Name: "mmlp_deadline_expired_total", Kind: obs.Counter, Help: "Jobs whose propagated deadline passed while queued (HTTP 504).",
		Int: func(s *StatsRaw) *int64 { return &s.DeadlineExpired }},
	{Name: "mmlp_delta_hits_total", Kind: obs.Counter, Help: "Delta solves answered from the result cache.",
		Int: func(s *StatsRaw) *int64 { return &s.DeltaHits }},
	{Name: "mmlp_delta_misses_total", Kind: obs.Counter, Help: "Delta solves that ran the splice pipeline or fell back cold.",
		Int: func(s *StatsRaw) *int64 { return &s.DeltaMisses }},
	{Name: "mmlp_dirty_agents_total", Kind: obs.Counter, Help: "Agents re-priced across delta misses.",
		Int: func(s *StatsRaw) *int64 { return &s.DirtyAgents }},
	{Name: "mmlp_faults_injected_total", Kind: obs.Counter, Help: "Faults fired by the -fault-spec chaos layer.",
		Int: func(s *StatsRaw) *int64 { return &s.FaultsInjected }},
	{Name: "mmlp_workers", Kind: obs.Gauge, Help: "Fixed worker pool size.",
		Int: func(s *StatsRaw) *int64 { return &s.Workers }},
	{Name: "mmlp_uptime_seconds", Kind: obs.Peak, Seconds: true, Help: "Pool age.",
		Int: func(s *StatsRaw) *int64 { return &s.UptimeNS }},
	{Name: "mmlp_solve_max_seconds", Kind: obs.Peak, Seconds: true, Help: "Slowest successful solve.",
		Int: func(s *StatsRaw) *int64 { return &s.MaxNS }},
	{Name: "mmlp_solve_duration_seconds", Help: "Successful solve latency.",
		Hist: func(s *StatsRaw) **obs.HistRaw { return &s.Solve }},
	{Name: "mmlp_stage_duration_seconds", Help: "Per-stage latency of the solve pipeline.", Label: "stage",
		Hists: func(s *StatsRaw) *map[string]*obs.HistRaw { return &s.Stages }},
}

// cacheMetrics declares the metrics of a CacheStatsRaw block.
var cacheMetrics = []obs.Metric[CacheStatsRaw]{
	{Name: "mmlp_cache_hits_total", Kind: obs.Counter, Help: "Result-cache hits.",
		Int: func(c *CacheStatsRaw) *int64 { return &c.Hits }},
	{Name: "mmlp_cache_misses_total", Kind: obs.Counter, Help: "Result-cache misses.",
		Int: func(c *CacheStatsRaw) *int64 { return &c.Misses }},
	{Name: "mmlp_cache_coalesced_total", Kind: obs.Counter, Help: "Lookups that joined an in-flight solve of the same key.",
		Int: func(c *CacheStatsRaw) *int64 { return &c.Coalesced }},
	{Name: "mmlp_cache_evictions_total", Kind: obs.Counter, Help: "Entries evicted under byte-budget pressure.",
		Int: func(c *CacheStatsRaw) *int64 { return &c.Evictions }},
	{Name: "mmlp_cache_pruned_total", Kind: obs.Counter, Help: "Entries dropped because a ring cutover moved their key.",
		Int: func(c *CacheStatsRaw) *int64 { return &c.Pruned }},
	{Name: "mmlp_cache_entries", Kind: obs.Gauge, Help: "Live cached results.",
		Int: func(c *CacheStatsRaw) *int64 { return &c.Entries }},
	{Name: "mmlp_cache_bytes", Kind: obs.Gauge, Help: "Bytes held by the result cache.",
		Int: func(c *CacheStatsRaw) *int64 { return &c.Bytes }},
	{Name: "mmlp_cache_max_bytes", Kind: obs.Gauge, Help: "Result-cache byte budget.",
		Int: func(c *CacheStatsRaw) *int64 { return &c.MaxBytes }},
}

// Add accumulates other into s (fleet aggregation), each declared metric
// by its kind: counters and gauges sum, UptimeNS and MaxNS keep the
// largest, histograms merge bucket-wise. AllocsPerJob averages
// job-weighted, so the fleet figure matches what one process doing all the
// work would have reported. P50NS/P99NS are not combined — no function of
// per-shard quantiles is a fleet quantile — so the caller derives them
// from the merged histogram with DeriveQuantiles. s never aliases other's
// histogram memory afterwards, so merging scraped blocks into a zero
// StatsRaw is safe.
func (s *StatsRaw) Add(other *StatsRaw) {
	if total := s.Jobs + other.Jobs; total > 0 {
		s.AllocsPerJob = (s.AllocsPerJob*float64(s.Jobs) + other.AllocsPerJob*float64(other.Jobs)) / float64(total)
	}
	obs.Merge(statsMetrics, s, other)
	if other.Cache != nil {
		if s.Cache == nil {
			s.Cache = &CacheStatsRaw{}
		}
		obs.Merge(cacheMetrics, s.Cache, other.Cache)
	}
}

// DeriveQuantiles overwrites P50NS/P99NS with quantiles of the Solve
// histogram: a shard's own on its block, the merged one on the fleet's.
// A quantile reads as its bucket's upper bound, which can overshoot every
// sample, so the histogram's exact maximum caps it. On a StatsRaw without
// a histogram it leaves the fields untouched.
func (s *StatsRaw) DeriveQuantiles() {
	h := s.Solve
	if h == nil || h.Count == 0 {
		return
	}
	s.P50NS = h.QuantileNS(0.50)
	s.P99NS = h.QuantileNS(0.99)
	if h.MaxNS > 0 {
		s.P50NS = min(s.P50NS, h.MaxNS)
		s.P99NS = min(s.P99NS, h.MaxNS)
	}
}

// WriteMetrics renders the block in the Prometheus text format: every
// declared metric, plus the cache's when caching is enabled.
func (s *StatsRaw) WriteMetrics(w io.Writer) {
	obs.WriteMetrics(w, statsMetrics, s)
	if s.Cache != nil {
		obs.WriteMetrics(w, cacheMetrics, s.Cache)
	}
}

// RouterStats is the router's own activity block inside FleetStats.
type RouterStats struct {
	// Shards is the configured fleet size, Healthy the members not
	// currently marked down.
	Shards  int64 `json:"shards"`
	Healthy int64 `json:"healthy"`
	// RingVersion is the current topology generation (1 at boot, bumped by
	// every accepted POST /admin/ring). Draining reports that a cutover is
	// still waiting for requests pinned to the previous generation.
	RingVersion int64 `json:"ring_version"`
	Draining    bool  `json:"draining,omitempty"`
	// Replication is the configured replica-set size R: each key lives on
	// its first R distinct ring successors.
	Replication int `json:"replication"`
	// Routed counts key→shard assignments, Forwarded the HTTP forwards
	// attempted (batch jobs forward per owning shard, not per job),
	// Retried the forwards re-sent to a later replica, ShardDown the
	// transitions of a member into the down state. Replicated counts the
	// write-through warms sent to backup replicas after a solve.
	Routed     int64 `json:"routed"`
	Forwarded  int64 `json:"forwarded"`
	Retried    int64 `json:"retried"`
	ShardDown  int64 `json:"shard_down"`
	Replicated int64 `json:"replicated"`
	// RetryBudgetExhausted counts requests failed fast (503) because a
	// retry hop was due and the router's retry token bucket was empty.
	RetryBudgetExhausted int64 `json:"retry_budget_exhausted,omitempty"`
	// CanonPassthrough counts canon-typed jobs the router keyed by hashing
	// the raw payload and forwarded verbatim — zero decodes on the router.
	CanonPassthrough int64 `json:"canon_passthrough"`
	// Forward is the histogram of successful forward round-trip times
	// (request sent to response headers received, per HTTP forward).
	Forward *obs.HistRaw `json:"forward_hist,omitempty"`
}

// routerMetrics declares the metrics of a RouterStats block.
var routerMetrics = []obs.Metric[RouterStats]{
	{Name: "mmlp_router_routed_total", Kind: obs.Counter, Help: "Requests admitted and routed to a shard.",
		Int: func(r *RouterStats) *int64 { return &r.Routed }},
	{Name: "mmlp_router_forwarded_total", Kind: obs.Counter, Help: "Shard-bound POSTs, including retries, warms and cutover notifications.",
		Int: func(r *RouterStats) *int64 { return &r.Forwarded }},
	{Name: "mmlp_router_retried_total", Kind: obs.Counter, Help: "Failover hops past the first dialled member.",
		Int: func(r *RouterStats) *int64 { return &r.Retried }},
	{Name: "mmlp_router_shard_down_total", Kind: obs.Counter, Help: "Transport failures that put a shard into cooldown.",
		Int: func(r *RouterStats) *int64 { return &r.ShardDown }},
	{Name: "mmlp_router_retry_budget_exhausted_total", Kind: obs.Counter, Help: "Requests failed fast (503) because the retry token bucket ran dry.",
		Int: func(r *RouterStats) *int64 { return &r.RetryBudgetExhausted }},
	{Name: "mmlp_router_replicated_total", Kind: obs.Counter, Help: "Write-through warms delivered to backup replicas.",
		Int: func(r *RouterStats) *int64 { return &r.Replicated }},
	{Name: "mmlp_router_canon_passthrough_total", Kind: obs.Counter, Help: "Canon payloads routed by hashing the raw bytes.",
		Int: func(r *RouterStats) *int64 { return &r.CanonPassthrough }},
	{Name: "mmlp_router_shards", Kind: obs.Gauge, Help: "Ring member count.",
		Int: func(r *RouterStats) *int64 { return &r.Shards }},
	{Name: "mmlp_router_healthy", Kind: obs.Gauge, Help: "Members outside a cooldown window.",
		Int: func(r *RouterStats) *int64 { return &r.Healthy }},
	{Name: "mmlp_router_ring_version", Kind: obs.Gauge, Help: "Current ring generation.",
		Int: func(r *RouterStats) *int64 { return &r.RingVersion }},
	{Name: "mmlp_router_forward_duration_seconds", Help: "Successful forward latency, send to response headers.",
		Hist: func(r *RouterStats) **obs.HistRaw { return &r.Forward }},
}

// WriteMetrics renders the router block in the Prometheus text format.
// Deliberately router-local: shard totals are each shard's /metrics to
// report, and the fleet aggregate stays on /statsz.
func (r *RouterStats) WriteMetrics(w io.Writer) { obs.WriteMetrics(w, routerMetrics, r) }

// RingProposal is the body of POST /admin/ring on mmlprouter: the member
// set of the next topology generation.
type RingProposal struct {
	Members []string `json:"members"`
}

// DrainStatus describes the in-progress half of a ring cutover.
type DrainStatus struct {
	// FromVersion/FromMembers identify the generation being drained.
	FromVersion uint64   `json:"from_version"`
	FromMembers []string `json:"from_members"`
	// Inflight is the number of requests still pinned to it.
	Inflight int64 `json:"inflight"`
}

// RingStatus is the body of GET /admin/ring (and the response of an
// accepted proposal): the current topology generation plus drain progress.
type RingStatus struct {
	Version     uint64       `json:"version"`
	Members     []string     `json:"members"`
	Replication int          `json:"replication"`
	Draining    *DrainStatus `json:"draining,omitempty"`
}

// ShardRingUpdate is the body of POST /admin/ring on mmlpserve: the router
// tells one shard the assignment changed so it prunes cache entries it no
// longer owns. Self is the receiving shard's own member address — a key is
// kept iff Self is among its first Replication distinct successors on the
// ring built from Members/Replicas.
type ShardRingUpdate struct {
	Members []string `json:"members"`
	// Replicas is the ring's virtual-node count per member (0 = the ring
	// default); it must match the router's flag for the assignments to
	// agree.
	Replicas    int    `json:"replicas,omitempty"`
	Replication int    `json:"replication,omitempty"`
	Self        string `json:"self"`
}

// PruneResponse reports how many cache entries a ShardRingUpdate removed.
type PruneResponse struct {
	Pruned int `json:"pruned"`
}

// ShardStats is one member's block inside FleetStats.
type ShardStats struct {
	// Addr is the member's host:port.
	Addr string `json:"addr"`
	// OK reports whether the /statsz?raw=1 scrape succeeded; Error carries
	// the failure when it did not (Stats is then nil).
	OK    bool      `json:"ok"`
	Error string    `json:"error,omitempty"`
	Stats *StatsRaw `json:"stats,omitempty"`
}

// FleetStats is the body of GET /statsz on mmlprouter: the router's own
// counters, the fleet-wide aggregate, and the per-shard raw blocks it was
// computed from.
type FleetStats struct {
	Router RouterStats  `json:"router"`
	Fleet  StatsRaw     `json:"fleet"`
	Shards []ShardStats `json:"shards"`
}
