// Command mmlpfleetcheck is the multi-process integration harness behind
// the fleet-smoke CI job. It runs eight scenarios, each against a freshly
// booted real fleet — N mmlpserve processes plus one mmlprouter — next to
// one direct mmlpserve reference process:
//
// baseline (replication 1) drives a randomized workload whose duplicate
// keys arrive in permuted spellings and asserts the three steady-state
// invariants end to end:
//
//  1. bit-identity — every response through the router (solve and batch,
//     all engines) is byte-identical to the direct single-process solve
//     after stripping the fields that legitimately differ per run
//     (latency_ms, and cached on first contact);
//  2. cache partitioning — each distinct canonical key is cached on
//     exactly one shard, the shard the ring assigns it, so the per-shard
//     /statsz?raw=1 entry counts match an independently computed ring
//     assignment and sum to the number of distinct keys (routing by
//     anything other than the canonical key — e.g. a raw body hash —
//     breaks this, because permuted spellings then land on other shards);
//  3. /statsz aggregation — the router's fleet totals equal the sum of
//     the per-shard raw counters scraped directly.
//
// replicated-kill (replication 2) warms a key set, waits until the
// write-through has placed every key on exactly its two ring replicas,
// then SIGKILLs a shard mid-batch: the batch must still produce one
// bit-identical line per job with zero failures, and every warm key must
// afterwards be answered from a surviving replica's cache — the fleet
// loses a process, not a result.
//
// cutover boots a spare shard and proposes a four-member ring through
// POST /admin/ring while a batch is streaming: the in-flight batch drains
// bit-identically on the old assignment, the drain is observable through
// GET /admin/ring, a second proposal during the drain is refused with 409
// plus a Retry-After derived from the drain's progress, and once the drain
// completes the shards prune exactly the keys whose owner moved — leaving
// the fleet a clean one-copy partition of every distinct key on the new
// ring.
//
// mixed (replication 1) runs a JSON client and a canon binary-wire client
// against one fleet: JSON solves warm the caches, then the same problems
// arrive respelled as canon payloads (solve and batch, with the binary
// result frame negotiated). Every canon answer must be a cache hit on the
// shard the ring assigns, bit-identical to the JSON reference, the fleet
// must hold exactly one cache line per problem across both encodings, and
// the router's canon_passthrough counter must account for every canon job
// — proving the router routes canon traffic by hashing bytes, without
// decoding.
//
// observability (replication 1) boots the shards with -slow-log 0 and
// drives traced traffic: every solve's router-minted X-Mmlp-Trace ID must
// be unique, echoed to the client, and surface in exactly one shard's
// slow-log; ?trace=1 stage blocks must attribute kernel time on cold
// solves and cache-lookup time (never kernel) on hits; /metrics must parse
// on every process, and every counter and histogram count the shards
// render must sum to the same series rendered from the router's merged
// fleet block; the fleet's latency quantiles must derive from the merged
// per-shard histograms; and the router's routed counter must equal the
// shards' summed jobs counters —
// the counter-conservation invariant, also checked at the end of the
// baseline, cutover and mixed scenarios.
//
// brownout (replication 1) boots shard0 with a deterministic -fault-spec
// that adds 800ms of latency to every /v1/ request and arms the router's
// retry budget: solves and batches must stay bit-identical to the direct
// reference, the slow shard must never be treated as dead (no cooldown, no
// failover hops, no budget spend), the fault counter must show the chaos
// layer actually fired, and counters must conserve.
//
// overload (replication 1) boots the shards with -queue 1 -shed and storms
// the router with more concurrent distinct slow keys than the fleet has
// worker+queue slots: admission control must answer the overflow with 429
// plus a positive Retry-After (relayed through the router, shard not
// marked down), clients that honour the hint must eventually land every
// job with answers bit-identical to the direct reference, the deadline
// header must parse at the router (and reject malformed values with 400),
// a propagated deadline that expires while a job queues behind wedged
// workers must surface as 504 with the shard's deadline_expired counter
// incremented and no connection hung, and the admission ledger must
// conserve: routed == jobs + shed across the fleet.
//
// delta (replication 1) warms a base solve, then prices an edit against it
// through POST /v1/delta: the router must route the delta to the shard
// owning the BASE key, the spliced answer must be bit-identical to the
// direct reference's cold solve of the edited instance with a strict
// subset of agents re-priced, a repeated delta must hit the cache, an
// unknown base must relay 404/base_unknown without marking the shard down,
// a chained delta whose base landed off its ring owner must follow the
// full-solve fallback, and the per-shard delta counters must aggregate
// exactly in the router's fleet view.
//
// Usage:
//
//	mmlpfleetcheck -bin ./bin [-shards 3] [-jobs 36] [-seed 1]
//	               [-replicas 64] [-workers 2] [-log-dir fleet-logs]
//
// Exit status 0 on success, 1 on any violated invariant (process logs are
// left in -log-dir for the CI artifact, one subdirectory per scenario), 2
// on bad flags.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/canon"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/shard"
)

func main() {
	bin := flag.String("bin", ".", "directory holding the mmlpserve and mmlprouter binaries")
	shards := flag.Int("shards", 3, "number of solver shards to boot")
	jobs := flag.Int("jobs", 36, "workload size (half distinct keys, half permuted duplicates)")
	seed := flag.Int64("seed", 1, "workload seed")
	replicas := flag.Int("replicas", 64, "virtual nodes per shard")
	workers := flag.Int("workers", 2, "per-shard pool size")
	logDir := flag.String("log-dir", "fleet-logs", "directory for per-process logs")
	flag.Parse()
	if *shards < 1 || *jobs < 2 || *replicas < 1 || *workers < 1 {
		fmt.Fprintln(os.Stderr, "mmlpfleetcheck: -shards, -jobs, -replicas and -workers must be positive (-jobs ≥ 2)")
		os.Exit(2)
	}

	scenarios := []struct {
		name        string
		replication int
		slowLog     bool // boot the shards with -slow-log 0
		run         func(*harness) error
	}{
		{"baseline", 1, false, (*harness).runBaseline},
		{"replicated-kill", 2, false, (*harness).runReplicatedKill},
		{"cutover", 1, false, (*harness).runCutover},
		{"mixed", 1, false, (*harness).runMixed},
		{"observability", 1, true, (*harness).runObservability},
		{"brownout", 1, false, (*harness).runBrownout},
		{"overload", 1, false, (*harness).runOverload},
		{"delta", 1, false, (*harness).runDelta},
	}
	for _, sc := range scenarios {
		fmt.Printf("=== scenario %s ===\n", sc.name)
		h := &harness{
			bin: *bin, nShards: *shards, jobs: *jobs, seed: *seed,
			replicas: *replicas, workers: *workers, replication: sc.replication,
			slowLog: sc.slowLog,
			logDir:  filepath.Join(*logDir, sc.name),
			hc:      &http.Client{Timeout: 2 * time.Minute},
		}
		err := sc.run(h)
		h.stopAll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL (%s): %v\n", sc.name, err)
			fmt.Fprintf(os.Stderr, "process logs are in %s\n", h.logDir)
			os.Exit(1)
		}
		fmt.Printf("scenario %s: PASS\n", sc.name)
	}
	fmt.Println("PASS: fleet bit-identity, partitioning, aggregation, replicated kill, ring cutover, mixed-encoding serving, observability, brownout survival, overload shedding and incremental delta re-solving all hold")
}

// proc is one child process of the fleet.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
}

type harness struct {
	bin         string
	nShards     int
	jobs        int
	seed        int64
	replicas    int
	workers     int
	replication int  // router -replication; 1 = classic single-copy
	slowLog     bool // boot the shards with -slow-log 0 (log every solve)
	logDir      string
	hc          *http.Client

	// Chaos hooks, set by a scenario before boot: extra boot flags for
	// every shard (e.g. -queue 1 -shed), for one shard by index (e.g. a
	// -fault-spec brownout), and for the router (e.g. -retry-budget). The
	// direct reference server never gets them — it is the healthy control.
	shardExtraAll []string
	shardExtra    map[int][]string
	routerExtra   []string

	procs      []*proc
	shardAddrs []string
	directAddr string
	routerAddr string
	ring       *shard.Ring // the same assignment the router computes
}

func (h *harness) runBaseline() error {
	if err := os.MkdirAll(h.logDir, 0o755); err != nil {
		return err
	}
	if err := h.boot(); err != nil {
		return err
	}
	// One ring, built exactly as the router builds it: every check below
	// validates the fleet against this single independent assignment.
	ring, err := shard.New(h.shardAddrs, h.replicas)
	if err != nil {
		return err
	}
	h.ring = ring
	reqs, dups, keys, err := h.workload()
	if err != nil {
		return err
	}
	if err := h.checkSolveIdentity(reqs, dups, keys); err != nil {
		return err
	}
	if err := h.checkBatchIdentity(reqs, dups); err != nil {
		return err
	}
	if err := h.checkPartitioning(keys); err != nil {
		return err
	}
	if err := h.checkAggregation(); err != nil {
		return err
	}
	return h.checkConservation(h.shardAddrs)
}

// freePorts reserves n distinct listening ports and releases them; the gap
// before the child binds is harmless on a CI box with no other tenants.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	listeners := make([]net.Listener, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = l
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	for _, l := range listeners {
		l.Close()
	}
	return ports, nil
}

// start launches one binary with its stdout+stderr teed to a log file.
func (h *harness) start(name, binName string, args ...string) error {
	logf, err := os.Create(filepath.Join(h.logDir, name+".log"))
	if err != nil {
		return err
	}
	cmd := exec.Command(filepath.Join(h.bin, binName), args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start %s: %w", name, err)
	}
	h.procs = append(h.procs, &proc{name: name, cmd: cmd, log: logf})
	fmt.Printf("started %s (pid %d): %s\n", name, cmd.Process.Pid, strings.Join(cmd.Args, " "))
	return nil
}

func (h *harness) stopAll() {
	for i := len(h.procs) - 1; i >= 0; i-- {
		p := h.procs[i]
		if p.cmd.Process != nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
		p.log.Close()
	}
	h.procs = nil
}

// boot brings up shards, the direct reference server and the router, and
// waits until every /healthz answers.
func (h *harness) boot() error {
	ports, err := freePorts(h.nShards + 2)
	if err != nil {
		return err
	}
	cacheArgs := []string{
		"-workers", fmt.Sprint(h.workers),
		"-cache-bytes", fmt.Sprint(16 << 20),
	}
	shardArgs := cacheArgs
	if h.slowLog {
		shardArgs = append(slices.Clone(cacheArgs), "-slow-log", "0")
	}
	for i := 0; i < h.nShards; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", ports[i])
		h.shardAddrs = append(h.shardAddrs, addr)
		args := append([]string{"-addr", addr}, shardArgs...)
		args = append(args, h.shardExtraAll...)
		args = append(args, h.shardExtra[i]...)
		if err := h.start(fmt.Sprintf("shard%d", i), "mmlpserve", args...); err != nil {
			return err
		}
	}
	h.directAddr = fmt.Sprintf("127.0.0.1:%d", ports[h.nShards])
	if err := h.start("direct", "mmlpserve",
		append([]string{"-addr", h.directAddr}, cacheArgs...)...); err != nil {
		return err
	}
	h.routerAddr = fmt.Sprintf("127.0.0.1:%d", ports[h.nShards+1])
	routerArgs := []string{
		"-addr", h.routerAddr,
		"-shards", strings.Join(h.shardAddrs, ","),
		"-replicas", fmt.Sprint(h.replicas),
	}
	if h.replication > 1 {
		routerArgs = append(routerArgs, "-replication", fmt.Sprint(h.replication))
	}
	routerArgs = append(routerArgs, h.routerExtra...)
	if err := h.start("router", "mmlprouter", routerArgs...); err != nil {
		return err
	}
	for _, addr := range append(slices.Clone(h.shardAddrs), h.directAddr, h.routerAddr) {
		if err := h.waitHealthy(addr, 15*time.Second); err != nil {
			return err
		}
	}
	return nil
}

func (h *harness) waitHealthy(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := h.hc.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// workload builds the scripted request set: jobs/2 distinct problems
// across all three engines, each paired with a permuted duplicate, plus
// the canonical key of every distinct problem.
func (h *harness) workload() (reqs, dups []mmlp.SolveRequest, keys []canon.Key, err error) {
	engines := []string{mmlp.EngineLocal, mmlp.EngineLocal, mmlp.EngineDist, mmlp.EngineDistCompact}
	n := h.jobs / 2
	for i := 0; i < n; i++ {
		eng := engines[i%len(engines)]
		agents := 8 + i%9
		if eng != mmlp.EngineLocal {
			agents = 5 + i%4 // message-passing engines carry O(N²) state; stay small
		}
		in := gen.Random(gen.RandomConfig{
			Agents: agents, MaxDegI: 3, MaxDegK: 3,
			ExtraCons: 2 + i%3, ExtraObjs: 1 + i%2,
		}, h.seed+int64(i))
		req := mmlp.SolveRequest{
			Instance:            in,
			Engine:              eng,
			R:                   2 + i%2,
			DisableSpecialCases: i%3 == 0,
		}
		job, jerr := batch.JobFromRequest(&req)
		if jerr != nil {
			return nil, nil, nil, fmt.Errorf("workload job %d invalid: %w", i, jerr)
		}
		reqs = append(reqs, req)
		keys = append(keys, engine.SolveKey(job.In, job.Opts))

		dup := req
		dup.Instance = gen.Permuted(in)
		dups = append(dups, dup)
	}
	return reqs, dups, keys, nil
}

// post sends one POST to addr and returns the status, the body and the
// response headers (X-Mmlp-Shard names the answering shard of a routed
// request). A []byte body is sent as is and anything else JSON-encoded;
// hdr holds extra request headers.
func (h *harness) post(addr, path, contentType string, body any, hdr map[string]string) (int, []byte, http.Header, error) {
	raw, ok := body.([]byte)
	if !ok {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return 0, nil, nil, err
		}
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+path, bytes.NewReader(raw))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header, err
}

// normalize strips the per-run fields (latency, cached, the opt-in trace
// block) from a solve response and re-encodes it, returning the canonical
// bytes plus the stripped cached flag. Float64 values survive a JSON
// decode/encode round trip bit-exactly, so byte equality of normalized
// bodies is bit-identity of the solutions.
func normalize(body []byte) ([]byte, bool, error) {
	var resp mmlp.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, false, fmt.Errorf("bad solve response %q: %w", body, err)
	}
	cached := resp.Cached
	resp.LatencyMS, resp.Cached, resp.Trace = 0, false, nil
	out, err := json.Marshal(resp)
	return out, cached, err
}

// checkSolveIdentity drives every distinct problem, then every permuted
// duplicate, through both the router and the direct server, and asserts
// byte-identity plus the cached-flag semantics: a shard must answer a
// duplicate key from its cache, which can only happen when both spellings
// routed to the same shard.
func (h *harness) checkSolveIdentity(reqs, dups []mmlp.SolveRequest, keys []canon.Key) error {
	ring := h.ring
	solveBoth := func(i int, req *mmlp.SolveRequest, wantCached bool) error {
		rcode, rbody, rhdr, err := h.post(h.routerAddr, "/v1/solve", mmlp.ContentTypeJSON, req, nil)
		if err != nil {
			return fmt.Errorf("job %d via router: %w", i, err)
		}
		member := rhdr.Get("X-Mmlp-Shard")
		dcode, dbody, _, err := h.post(h.directAddr, "/v1/solve", mmlp.ContentTypeJSON, req, nil)
		if err != nil {
			return fmt.Errorf("job %d direct: %w", i, err)
		}
		if rcode != http.StatusOK || dcode != http.StatusOK {
			return fmt.Errorf("job %d: router %d (%s), direct %d (%s)", i, rcode, rbody, dcode, dbody)
		}
		if want := ring.Owner(keys[i]); member != want {
			return fmt.Errorf("job %d served by shard %s, ring owner is %s", i, member, want)
		}
		rn, rcached, err := normalize(rbody)
		if err != nil {
			return err
		}
		dn, _, err := normalize(dbody)
		if err != nil {
			return err
		}
		if !bytes.Equal(rn, dn) {
			return fmt.Errorf("job %d: router response differs from direct solve\nrouter: %s\ndirect: %s", i, rn, dn)
		}
		if rcached != wantCached {
			return fmt.Errorf("job %d: cached=%v via router, want %v", i, rcached, wantCached)
		}
		return nil
	}
	for i := range reqs {
		if err := solveBoth(i, &reqs[i], false); err != nil {
			return fmt.Errorf("distinct pass: %w", err)
		}
	}
	// Every duplicate arrives respelled: only canonical-key routing sends
	// it to the shard that already holds the key.
	for i := range dups {
		if err := solveBoth(i, &dups[i], true); err != nil {
			return fmt.Errorf("duplicate pass: %w", err)
		}
	}
	fmt.Printf("solve identity: %d distinct + %d permuted duplicates bit-identical, duplicates cached on their owning shard\n", len(reqs), len(dups))
	return nil
}

// checkBatchIdentity sends the full interleaved workload as one batch to
// the router and the direct server and compares the streams per index.
func (h *harness) checkBatchIdentity(reqs, dups []mmlp.SolveRequest) error {
	all := make([]mmlp.SolveRequest, 0, len(reqs)+len(dups))
	for i := range reqs {
		all = append(all, reqs[i], dups[i])
	}
	body, err := json.Marshal(mmlp.BatchRequest{Jobs: all})
	if err != nil {
		return err
	}
	routerItems, err := h.fetchBatch(h.routerAddr, body)
	if err != nil {
		return err
	}
	directItems, err := h.fetchBatch(h.directAddr, body)
	if err != nil {
		return err
	}
	if len(routerItems) != len(all) || len(directItems) != len(all) {
		return fmt.Errorf("batch line counts: router %d, direct %d, want %d", len(routerItems), len(directItems), len(all))
	}
	for i := 0; i < len(all); i++ {
		rn, rok := routerItems[i]
		dn, dok := directItems[i]
		if !rok || !dok {
			return fmt.Errorf("batch index %d missing (router %v, direct %v)", i, rok, dok)
		}
		if !bytes.Equal(rn, dn) {
			return fmt.Errorf("batch index %d: router line differs from direct\nrouter: %s\ndirect: %s", i, rn, dn)
		}
	}
	fmt.Printf("batch identity: %d merged NDJSON lines bit-identical to the direct stream\n", len(all))
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// fetchBatch streams one batch and returns normalized per-index payloads.
func (h *harness) fetchBatch(addr string, body []byte) (map[int][]byte, error) {
	return h.streamBatch(addr, body, 0, nil)
}

// streamBatch posts one batch and reads its NDJSON stream, firing hook —
// the fault injection of the kill and cutover scenarios — once afterLines
// lines have arrived. Any error line or duplicate index fails the stream:
// the one-answer-per-job contract must hold whatever happens to the fleet
// while it streams.
func (h *harness) streamBatch(addr string, body []byte, afterLines int, hook func() error) (map[int][]byte, error) {
	resp, err := h.hc.Post("http://"+addr+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("batch via %s: status %d (%s)", addr, resp.StatusCode, b)
	}
	items := map[int][]byte{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var item mmlp.BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			return nil, fmt.Errorf("batch via %s: bad line %q: %w", addr, sc.Text(), err)
		}
		if item.Error != "" {
			return nil, fmt.Errorf("batch via %s: job %d failed: %s", addr, item.Index, item.Error)
		}
		if _, dup := items[item.Index]; dup {
			return nil, fmt.Errorf("batch via %s: index %d emitted twice", addr, item.Index)
		}
		n, _, err := normalize(mustJSON(item.SolveResponse))
		if err != nil {
			return nil, err
		}
		items[item.Index] = n
		if hook != nil && len(items) >= afterLines {
			if err := hook(); err != nil {
				return nil, err
			}
			hook = nil
		}
	}
	return items, sc.Err()
}

// scrapeRaw fetches one process's machine stats block.
func (h *harness) scrapeRaw(addr string) (*mmlp.StatsRaw, error) {
	resp, err := h.hc.Get("http://" + addr + "/statsz?raw=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw mmlp.StatsRaw
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("statsz?raw=1 via %s: %w", addr, err)
	}
	return &raw, nil
}

// checkPartitioning proves each distinct key is cached on exactly one
// shard — the one the ring assigns — by comparing every shard's live cache
// entry count against an independently computed ring assignment.
func (h *harness) checkPartitioning(keys []canon.Key) error {
	distinct := map[canon.Key]bool{}
	expected := map[string]int{}
	for _, k := range keys {
		if !distinct[k] {
			distinct[k] = true
			expected[h.ring.Owner(k)]++
		}
	}
	total := 0
	for _, addr := range h.shardAddrs {
		raw, err := h.scrapeRaw(addr)
		if err != nil {
			return err
		}
		if raw.Cache == nil {
			return fmt.Errorf("shard %s reports no cache block", addr)
		}
		if raw.Cache.Entries != int64(expected[addr]) {
			return fmt.Errorf("shard %s caches %d entries, ring assigns it %d of the %d distinct keys — keys are duplicated or misrouted across the fleet",
				addr, raw.Cache.Entries, expected[addr], len(distinct))
		}
		if raw.Cache.Evictions != 0 {
			return fmt.Errorf("shard %s evicted %d entries; the smoke workload must fit its cache", addr, raw.Cache.Evictions)
		}
		total += int(raw.Cache.Entries)
	}
	if total != len(distinct) {
		return fmt.Errorf("fleet caches %d entries in total, want exactly %d distinct keys", total, len(distinct))
	}
	fmt.Printf("cache partitioning: %d distinct keys occupy exactly one shard each (per-shard counts match the ring)\n", len(distinct))
	return nil
}

// checkAggregation compares the router's fleet view against per-shard raw
// scrapes taken while the fleet is quiescent.
func (h *harness) checkAggregation() error {
	fleet, err := h.fleetStats()
	if err != nil {
		return err
	}
	if fleet.Router.Shards != int64(h.nShards) || fleet.Router.Healthy != int64(h.nShards) {
		return fmt.Errorf("router reports %d/%d healthy shards, want %d/%d",
			fleet.Router.Healthy, fleet.Router.Shards, h.nShards, h.nShards)
	}
	if fleet.Router.Retried != 0 || fleet.Router.ShardDown != 0 {
		return fmt.Errorf("healthy fleet recorded retries/downs: %+v", fleet.Router)
	}
	var want mmlp.StatsRaw
	for _, addr := range h.shardAddrs {
		raw, err := h.scrapeRaw(addr)
		if err != nil {
			return err
		}
		want.Add(raw)
	}
	got := fleet.Fleet
	if got.Jobs != want.Jobs || got.Errors != want.Errors || got.Workers != want.Workers {
		return fmt.Errorf("fleet totals %+v do not match per-shard sums %+v", got, want)
	}
	if got.Cache == nil || want.Cache == nil {
		return fmt.Errorf("fleet view is missing cache totals")
	}
	if *got.Cache != *want.Cache {
		return fmt.Errorf("fleet cache totals %+v do not match per-shard sums %+v", *got.Cache, *want.Cache)
	}
	if len(fleet.Shards) != h.nShards {
		return fmt.Errorf("fleet view has %d shard blocks, want %d", len(fleet.Shards), h.nShards)
	}
	for _, ss := range fleet.Shards {
		if !ss.OK || ss.Stats == nil {
			return fmt.Errorf("shard block unhealthy in fleet view: %+v", ss)
		}
	}
	fmt.Printf("statsz aggregation: fleet totals (%d jobs, %d cache hits, %d entries) equal the per-shard sums\n",
		got.Jobs, got.Cache.Hits, got.Cache.Entries)
	return nil
}
