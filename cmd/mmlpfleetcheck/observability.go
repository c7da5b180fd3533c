package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/obs"
	"repro/internal/shard"
)

// checkConservation is the fleet's counter-conservation invariant: every
// request the router admits (one `routed` increment per solve or batch
// job) becomes exactly one completed pool job on exactly one shard, so at
// quiescence the router's routed counter equals the shards' summed jobs
// counters. Valid only for replication-1 scenarios with a healthy fleet:
// write-through warms and truncated-stream re-forwards create shard jobs
// the router never counted as routed, so the replicated-kill scenario
// skips this check.
func (h *harness) checkConservation(addrs []string) error {
	fleet, err := h.fleetStats()
	if err != nil {
		return err
	}
	var jobs int64
	for _, addr := range addrs {
		raw, err := h.scrapeRaw(addr)
		if err != nil {
			return err
		}
		jobs += raw.Jobs
	}
	if fleet.Router.Routed != jobs {
		return fmt.Errorf("counter conservation: router routed %d jobs but the shards completed %d — requests were lost, duplicated, or counted twice",
			fleet.Router.Routed, jobs)
	}
	fmt.Printf("counter conservation: routed=%d equals the shards' summed jobs\n", jobs)
	return nil
}

// promLine is one parsed sample of the Prometheus text format.
type promLine struct {
	series string // name plus label block, e.g. `mmlp_jobs_total` or `x_bucket{le="0.1"}`
	value  float64
}

var promSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})?$`)

// parseProm parses a /metrics body, validating the exposition format line
// by line: every non-comment line must be "<series> <value>", and within
// one histogram the cumulative bucket counts must be monotone up to +Inf.
func parseProm(text string) ([]promLine, error) {
	var out []promLine
	prevBucket := ""
	prevCount := 0.0
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("malformed sample line %q", line)
		}
		if !promSampleRe.MatchString(fields[0]) {
			return nil, fmt.Errorf("malformed series name %q", fields[0])
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed value in %q: %w", line, err)
		}
		if name, _, isBucket := strings.Cut(fields[0], "_bucket{"); isBucket {
			if name == prevBucket && v < prevCount {
				return nil, fmt.Errorf("histogram %s buckets not cumulative: %q < %g", name, line, prevCount)
			}
			prevBucket, prevCount = name, v
		} else {
			prevBucket, prevCount = "", 0
		}
		out = append(out, promLine{series: fields[0], value: v})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no samples")
	}
	return out, nil
}

// scrapeMetrics fetches and parses one process's /metrics.
func (h *harness) scrapeMetrics(addr string) ([]promLine, error) {
	resp, err := h.hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics via %s: status %d", addr, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return nil, fmt.Errorf("metrics via %s: Content-Type %q", addr, ct)
	}
	lines, err := parseProm(string(body))
	if err != nil {
		return nil, fmt.Errorf("metrics via %s: %w", addr, err)
	}
	return lines, nil
}

// summable reports whether a fleet's value of series is the sum of its
// shards': a counter (_total by convention) or a histogram's _count.
func summable(series string) bool {
	name, _, _ := strings.Cut(series, "{")
	return strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_count")
}

// metricValue finds one exact series in a parsed scrape.
func metricValue(lines []promLine, series string) (float64, error) {
	for _, l := range lines {
		if l.series == series {
			return l.value, nil
		}
	}
	return 0, fmt.Errorf("series %q absent", series)
}

// checkSlowLogIDs polls the shard log files until every router-issued
// trace ID has surfaced in exactly one shard's slow-log. Appearing in two
// logs would mean one request ran twice; in zero, that the slow-log
// dropped a solve or the ID never propagated.
func (h *harness) checkSlowLogIDs(ids []string) error {
	logs := make([]string, h.nShards)
	deadline := time.Now().Add(15 * time.Second)
	for {
		for i := range logs {
			b, err := os.ReadFile(filepath.Join(h.logDir, fmt.Sprintf("shard%d.log", i)))
			if err != nil {
				return err
			}
			logs[i] = string(b)
		}
		allFound := true
		for _, id := range ids {
			n := 0
			for _, log := range logs {
				if strings.Contains(log, "trace="+id) {
					n++
				}
			}
			if n > 1 {
				return fmt.Errorf("trace ID %s appears in %d shard slow-logs, want exactly 1", id, n)
			}
			if n == 0 {
				allFound = false
			}
		}
		if allFound {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("some trace IDs never reached any shard's slow-log")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runObservability is the observability scenario: with every shard booted
// at -slow-log 0, drive traced traffic through the router and assert the
// whole telemetry chain end to end — per-request trace IDs minted once and
// landing in exactly one shard's slow-log, ?trace=1 stage blocks that
// match what the solve actually did, /metrics parsing on every process
// with counters that agree with /statsz, fleet quantiles derived from the
// merged histograms, build identity on /healthz, and counter conservation
// across the routing layer.
func (h *harness) runObservability() error {
	if err := os.MkdirAll(h.logDir, 0o755); err != nil {
		return err
	}
	if err := h.boot(); err != nil {
		return err
	}
	ring, err := shard.New(h.shardAddrs, h.replicas)
	if err != nil {
		return err
	}
	h.ring = ring

	// Phase A: distinct problems with ?trace=1. Each response must echo a
	// fresh router-minted ID and carry a stage block attributing kernel
	// time; the direct reference (no tracing) must stay bit-identical.
	reqs := fastSet(h.seed+500, 8)
	ids := map[string]bool{}
	var idList []string
	ref := make([][]byte, len(reqs))
	for i := range reqs {
		code, rbody, hdr, err := h.post(h.routerAddr, "/v1/solve?trace=1", mmlp.ContentTypeJSON, &reqs[i], nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("traced solve %d: status %d, err %v (%s)", i, code, err, rbody)
		}
		id := hdr.Get(obs.TraceHeader)
		if len(id) != 16 {
			return fmt.Errorf("traced solve %d: router echoed trace ID %q, want 16 hex chars", i, id)
		}
		if ids[id] {
			return fmt.Errorf("traced solve %d: router reused trace ID %s", i, id)
		}
		ids[id] = true
		idList = append(idList, id)

		var resp mmlp.SolveResponse
		if err := json.Unmarshal(rbody, &resp); err != nil {
			return fmt.Errorf("traced solve %d: %w", i, err)
		}
		if resp.Cached {
			return fmt.Errorf("traced solve %d cached on first contact", i)
		}
		if resp.Trace["kernel"] <= 0 {
			return fmt.Errorf("traced solve %d: cold solve's trace does not attribute kernel time: %v", i, resp.Trace)
		}
		if _, ok := resp.Trace["cache_lookup"]; !ok {
			return fmt.Errorf("traced solve %d: trace lacks the cache_lookup stage: %v", i, resp.Trace)
		}
		n, _, err := normalize(rbody)
		if err != nil {
			return err
		}
		dcode, dbody, _, err := h.post(h.directAddr, "/v1/solve", mmlp.ContentTypeJSON, &reqs[i], nil)
		if err != nil || dcode != http.StatusOK {
			return fmt.Errorf("direct solve %d: status %d, err %v", i, dcode, err)
		}
		dn, _, err := normalize(dbody)
		if err != nil {
			return err
		}
		if !bytes.Equal(n, dn) {
			return fmt.Errorf("traced solve %d differs from the direct reference\nrouter: %s\ndirect: %s", i, n, dn)
		}
		ref[i] = n
	}

	// Phase B: permuted duplicates. A cache hit's trace must show the
	// lookup and must not claim kernel work that never ran.
	for i := range reqs {
		dup := reqs[i]
		dup.Instance = gen.Permuted(reqs[i].Instance)
		code, rbody, hdr, err := h.post(h.routerAddr, "/v1/solve?trace=1", mmlp.ContentTypeJSON, &dup, nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("traced dup %d: status %d, err %v (%s)", i, code, err, rbody)
		}
		id := hdr.Get(obs.TraceHeader)
		if ids[id] {
			return fmt.Errorf("traced dup %d: router reused trace ID %s", i, id)
		}
		ids[id] = true
		idList = append(idList, id)
		var resp mmlp.SolveResponse
		if err := json.Unmarshal(rbody, &resp); err != nil {
			return err
		}
		if !resp.Cached {
			return fmt.Errorf("traced dup %d not cached", i)
		}
		if _, ok := resp.Trace["cache_lookup"]; !ok {
			return fmt.Errorf("traced dup %d: cached trace lacks cache_lookup: %v", i, resp.Trace)
		}
		if _, ok := resp.Trace["kernel"]; ok {
			return fmt.Errorf("traced dup %d: cached trace claims kernel time: %v", i, resp.Trace)
		}
		n, _, err := normalize(rbody)
		if err != nil {
			return err
		}
		if !bytes.Equal(n, ref[i]) {
			return fmt.Errorf("traced dup %d differs from its distinct spelling", i)
		}
	}
	fmt.Printf("trace spans: %d solves each carried a unique router ID and a stage block matching the work done\n", len(idList))

	// A client-supplied ID is adopted, not replaced.
	clientID := "feedface00000001"
	code, _, hdr, err := h.post(h.routerAddr, "/v1/solve", mmlp.ContentTypeJSON, &reqs[0], map[string]string{obs.TraceHeader: clientID})
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("client-ID solve: status %d, err %v", code, err)
	}
	echoed := hdr.Get(obs.TraceHeader)
	if echoed != clientID {
		return fmt.Errorf("client-supplied trace ID echoed as %q, want %q", echoed, clientID)
	}
	idList = append(idList, clientID)

	// Phase C: with -slow-log 0 every solve logs; each ID must surface in
	// exactly one shard's log.
	if err := h.checkSlowLogIDs(idList); err != nil {
		return err
	}
	fmt.Printf("slow-log: every router-issued trace ID appears in exactly one shard's log\n")

	// Phase D: /metrics on every process. Each scrape must parse, and every
	// counter and histogram count the shards render must sum to the same
	// series rendered from the router's merged fleet block — one check per
	// declared metric, so a metric the merge or the renderer dropped fails.
	fleet, err := h.fleetStats()
	if err != nil {
		return err
	}
	var fleetText bytes.Buffer
	fleet.Fleet.WriteMetrics(&fleetText)
	fleetLines, err := parseProm(fleetText.String())
	if err != nil {
		return fmt.Errorf("fleet block renders malformed metrics: %w", err)
	}
	want := map[string]float64{}
	for _, l := range fleetLines {
		if summable(l.series) {
			want[l.series] = l.value
		}
	}
	got := map[string]float64{}
	for _, addr := range h.shardAddrs {
		lines, err := h.scrapeMetrics(addr)
		if err != nil {
			return err
		}
		for _, l := range lines {
			if summable(l.series) {
				got[l.series] += l.value
			}
		}
	}
	for series, v := range got {
		if _, ok := want[series]; !ok {
			return fmt.Errorf("shards render %s (sum %v), the fleet view does not", series, v)
		}
	}
	for series, v := range want {
		if got[series] != v {
			return fmt.Errorf("shard /metrics %s sum to %v, the fleet view renders %v", series, got[series], v)
		}
	}
	if _, ok := want["mmlp_jobs_total"]; !ok {
		return fmt.Errorf("fleet view renders no mmlp_jobs_total")
	}
	routerLines, err := h.scrapeMetrics(h.routerAddr)
	if err != nil {
		return err
	}
	routed, err := metricValue(routerLines, "mmlp_router_routed_total")
	if err != nil {
		return fmt.Errorf("router metrics: %w", err)
	}
	if routed != float64(fleet.Router.Routed) {
		return fmt.Errorf("router /metrics routed=%v, /statsz reports %d", routed, fleet.Router.Routed)
	}
	if _, err := metricValue(routerLines, "mmlp_router_forward_duration_seconds_count"); err != nil {
		return fmt.Errorf("router metrics: %w", err)
	}
	fmt.Printf("metrics: %d shard scrapes + the router parse, and all %d summable series equal the fleet view\n", h.nShards, len(want))

	// Phase E: fleet quantiles exist and are ordered — they can only come
	// from the merged histograms, because the per-shard raw blocks carry
	// per-process quantiles the router no longer combines.
	if fleet.Fleet.P50NS <= 0 || fleet.Fleet.P99NS < fleet.Fleet.P50NS {
		return fmt.Errorf("fleet quantiles p50=%d p99=%d, want 0 < p50 ≤ p99 from the merged histogram",
			fleet.Fleet.P50NS, fleet.Fleet.P99NS)
	}
	if fleet.Router.Forward == nil || fleet.Router.Forward.Count == 0 {
		return fmt.Errorf("router forward histogram missing from the fleet view")
	}
	fmt.Printf("fleet quantiles: p50=%s p99=%s derived from the merged solve histogram (%d samples)\n",
		time.Duration(fleet.Fleet.P50NS), time.Duration(fleet.Fleet.P99NS), fleet.Fleet.Solve.Count)

	// Phase F: /healthz build identity on the router and every shard.
	for _, addr := range append([]string{h.routerAddr}, h.shardAddrs...) {
		resp, err := h.hc.Get("http://" + addr + "/healthz")
		if err != nil {
			return err
		}
		var hz struct {
			Revision *string `json:"revision"`
			Dirty    *bool   `json:"dirty"`
		}
		err = json.NewDecoder(resp.Body).Decode(&hz)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("healthz via %s: %w", addr, err)
		}
		if hz.Revision == nil || *hz.Revision == "" || hz.Dirty == nil {
			return fmt.Errorf("healthz via %s lacks build identity", addr)
		}
	}
	fmt.Printf("healthz: build revision and dirty flag reported by the router and all %d shards\n", h.nShards)

	return h.checkConservation(h.shardAddrs)
}
