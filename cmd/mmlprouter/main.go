// Command mmlprouter fronts a fleet of mmlpserve shards with consistent-
// hash routing: every solve is forwarded to the shard that owns the
// canonical (instance, options) key, so N independent processes behave
// like one big pool whose per-process result caches partition one
// fleet-wide cache — a key is cached on exactly one shard, and every
// syntactic spelling of one problem routes to it.
//
// Usage:
//
//	mmlprouter -shards host:port,host:port,... [-addr :8090] [-replicas 128]
//	           [-replication 1] [-max-body 8388608] [-cooldown 5s]
//	           [-default-deadline 0] [-retry-budget 0] [-retry-backoff 25ms]
//	           [-debug-addr :6060]
//
// Endpoints (the wire contract matches mmlpserve, so clients need not know
// whether they talk to a shard or the router):
//
//	POST /v1/solve  — routed to the owning shard; the shard's response is
//	                  relayed verbatim (X-Mmlp-Shard names the shard)
//	POST /v1/batch  — jobs fan out to their owning shards as per-shard
//	                  sub-batches; the NDJSON streams re-merge in arrival
//	                  order with indices rewritten to the original request
//	POST /v1/delta  — routed to the shard owning the BASE key (the only
//	                  one whose cache can hold the base record); a 404
//	                  base_unknown is relayed verbatim without marking
//	                  the shard down, and deltas are never write-through
//	                  replicated
//	GET  /v1/capabilities — the router's serving surface (endpoints,
//	                  engines, replication factor) for feature detection
//	GET  /healthz   — router liveness, the fleet's healthy-member count,
//	                  and the build's VCS revision/dirty flag
//	GET  /statsz    — the fleet view: router counters (routed/forwarded/
//	                  retried/shard_down/replicated, ring version, the
//	                  forward-latency histogram), summed per-shard batch
//	                  and cache totals with fleet latency quantiles derived
//	                  from the merged histograms, and the raw per-shard
//	                  blocks
//	GET  /metrics   — the router's own counters, gauges and forward-latency
//	                  histogram in the Prometheus text format
//	GET  /admin/ring  — current ring generation, member set and drain
//	                  progress of an in-flight cutover
//	POST /admin/ring  — propose a new member set ({"members":[...]}). New
//	                  requests route by the new ring immediately; in-flight
//	                  work drains on the old one, then every affected shard
//	                  is told to prune the keys it no longer owns. 409
//	                  while a previous cutover still drains.
//
// -replication R > 1 stores every key on its first R distinct ring
// successors: after a shard answers a solve, the router warms the other
// replicas in the background, so a dead primary costs a failover hop
// instead of a recompute. With the default R=1 behaviour is the classic
// single-copy partition.
//
// -max-body should not exceed the shards' own -max-body: the router
// forwards what it accepts, and a sub-batch a shard rejects (e.g. with
// 413) is terminal for that group's jobs — the shard processed the
// request, so there is nothing to fail over.
//
// Observability: every /v1/ request gets an X-Mmlp-Trace ID (minted here
// unless the client supplied one) that is echoed on the response — errors
// included — and forwarded with every shard hop, so the router response,
// the owning shard's ?trace=1 block and its slow-log all share one ID.
// -debug-addr serves net/http/pprof on a separate listener.
//
// A shard that fails at the transport level is marked down for -cooldown
// and its keys are served by the next replica on the ring until it
// recovers; solves are pure functions of their requests, so the failover
// is always safe (at the temporary cost of duplicate cache entries for
// keys solved on a stand-in).
//
// Overload behavior: an X-Mmlp-Deadline-Ms request header (the client's
// remaining budget in whole milliseconds) becomes the request's deadline
// and is re-minted — shrunk by the time already spent — on every shard
// hop; -default-deadline supplies one for clients that sent none. Failover
// hops back off exponentially from -retry-backoff (capped at 1s, with
// seeded jitter; 0 disables the sleeps), and -retry-budget N arms a token
// bucket refilled by successes: when it runs dry, a request due a retry
// hop fails fast with 503 instead of piling on, so a browned-out fleet
// degrades instead of collapsing. A shard's 429 (its -shed admission
// verdict) is relayed verbatim, Retry-After included, without marking the
// shard down — refusing work is a healthy answer.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/httperr"
	"repro/internal/shard"
)

// routerConfig is the parsed and validated flag set.
type routerConfig struct {
	addr            string
	shards          []string
	replicas        int
	replication     int
	maxBody         int64
	cooldown        time.Duration
	shutdownGrace   time.Duration
	debugAddr       string
	defaultDeadline time.Duration
	retryBudget     int
	retryBackoff    time.Duration
}

// parseFlags parses and vets the command line. Invalid values are errors —
// main exits 2 on them, matching the mmlpbench -scale / mmlpdist -protocol
// convention.
func parseFlags(args []string) (*routerConfig, error) {
	fs := flag.NewFlagSet("mmlprouter", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	shards := fs.String("shards", "", "comma-separated shard addresses (host:port,...)")
	replicas := fs.Int("replicas", shard.DefaultReplicas, "virtual nodes per shard on the hash ring")
	replication := fs.Int("replication", 1, "shards holding each key (1 = no replication; >1 adds background write-through to backup replicas)")
	maxBody := fs.Int64("max-body", 8<<20, "largest accepted request body in bytes (keep ≤ every shard's -max-body: a sub-batch a shard rejects as oversized fails that whole group)")
	cooldown := fs.Duration("cooldown", shard.DefaultCooldown, "how long a failed shard stays routed-around")
	shutdownGrace := fs.Duration("shutdown-grace", 10*time.Second, "graceful shutdown window")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address (empty disables)")
	defaultDeadline := fs.Duration("default-deadline", 0, "deadline minted for requests without an X-Mmlp-Deadline-Ms header (0 = none)")
	retryBudget := fs.Int("retry-budget", 0, "retry token bucket: failover hops the router may spend beyond each request's first attempt, refilled by successes (0 disables budgeting)")
	retryBackoff := fs.Duration("retry-backoff", shard.DefaultRetryBackoff, "base wait before a failover hop, doubled per hop with seeded jitter (0 disables the sleeps)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	cfg := &routerConfig{
		addr: *addr, replicas: *replicas, replication: *replication,
		maxBody: *maxBody, cooldown: *cooldown, shutdownGrace: *shutdownGrace,
		debugAddr: *debugAddr, defaultDeadline: *defaultDeadline,
		retryBudget: *retryBudget, retryBackoff: *retryBackoff,
	}
	if strings.TrimSpace(*shards) == "" {
		return nil, errors.New("-shards must list at least one host:port")
	}
	seen := map[string]bool{}
	for _, s := range strings.Split(*shards, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			return nil, fmt.Errorf("-shards has an empty entry in %q", *shards)
		}
		if seen[s] {
			return nil, fmt.Errorf("-shards lists %q twice", s)
		}
		seen[s] = true
		cfg.shards = append(cfg.shards, s)
	}
	if cfg.replicas <= 0 {
		return nil, fmt.Errorf("-replicas must be positive, got %d", cfg.replicas)
	}
	if cfg.replication <= 0 {
		return nil, fmt.Errorf("-replication must be positive, got %d", cfg.replication)
	}
	if cfg.replication > len(cfg.shards) {
		return nil, fmt.Errorf("-replication %d exceeds the fleet size %d", cfg.replication, len(cfg.shards))
	}
	if cfg.maxBody <= 0 {
		return nil, fmt.Errorf("-max-body must be positive, got %d", cfg.maxBody)
	}
	if cfg.cooldown <= 0 {
		return nil, fmt.Errorf("-cooldown must be positive, got %v", cfg.cooldown)
	}
	if cfg.defaultDeadline < 0 {
		return nil, fmt.Errorf("-default-deadline must be ≥ 0 (0 disables), got %v", cfg.defaultDeadline)
	}
	if cfg.retryBudget < 0 {
		return nil, fmt.Errorf("-retry-budget must be ≥ 0 (0 disables), got %d", cfg.retryBudget)
	}
	if cfg.retryBackoff < 0 {
		return nil, fmt.Errorf("-retry-backoff must be ≥ 0 (0 disables), got %v", cfg.retryBackoff)
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "mmlprouter:", err)
		os.Exit(2)
	}

	ring, err := shard.New(cfg.shards, cfg.replicas)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmlprouter:", err)
		os.Exit(2)
	}
	// The cutover hook closes over rt, assigned right after NewClient
	// returns; the hook can only fire after a Propose, which only an HTTP
	// request on rt can trigger, so the assignment happens-before any call.
	var rt *router
	client := shard.NewClient(ring, shard.ClientOptions{
		Cooldown:      cfg.cooldown,
		Replication:   cfg.replication,
		RetryBudget:   cfg.retryBudget,
		RetryBackoff:  cfg.retryBackoff,
		OnCutoverDone: func(old, new *shard.Ring) { rt.notifyCutover(old, new) },
	})
	rt = newRouter(client, cfg.maxBody)
	rt.setDefaultDeadline(cfg.defaultDeadline)
	httperr.Serve("mmlprouter", cfg.addr, cfg.debugAddr, rt, cfg.shutdownGrace,
		fmt.Sprintf(", routing to %d shards (%s), %d vnodes each",
			len(ring.Members()), strings.Join(ring.Members(), ", "), ring.Replicas()))
}
