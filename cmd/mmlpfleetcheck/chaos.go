package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/mmlp"
	"repro/internal/obs"
	"repro/internal/shard"
)

// heavySet builds n distinct problems of agents+10i agents, heavy enough
// to wedge a worker for longer than any deadline the overload scenario
// propagates, so a deadline'd probe queued behind one provably expires
// while waiting. Their solve time is linear in the agent count; the
// queue-expiry phase sizes them to the host and checks the precondition
// on every run.
func heavySet(seedBase int64, n, agents int) []mmlp.SolveRequest {
	reqs := make([]mmlp.SolveRequest, n)
	for i := range reqs {
		in := gen.Random(gen.RandomConfig{
			Agents: agents + 10*i, MaxDegI: 3, MaxDegK: 3,
			ExtraCons: 8, ExtraObjs: 4,
		}, seedBase+int64(i))
		reqs[i] = mmlp.SolveRequest{Instance: in, Engine: mmlp.EngineDistCompact, R: 5, BinIters: 8000}
	}
	return reqs
}

// checkConservationShed is the overload form of the counter-conservation
// invariant: with admission control on, every request the router routes is
// either completed as a pool job (solved, failed, or expired in queue) or
// refused at admission, so routed == Σ(jobs + shed) at quiescence. Nothing
// is ever silently dropped.
func (h *harness) checkConservationShed(addrs []string) error {
	fleet, err := h.fleetStats()
	if err != nil {
		return err
	}
	var jobs, shed int64
	for _, addr := range addrs {
		raw, err := h.scrapeRaw(addr)
		if err != nil {
			return err
		}
		jobs += raw.Jobs
		shed += raw.Shed
	}
	if fleet.Router.Routed != jobs+shed {
		return fmt.Errorf("admission ledger: router routed %d requests but the shards account for %d jobs + %d shed = %d — requests were lost or double-counted",
			fleet.Router.Routed, jobs, shed, jobs+shed)
	}
	fmt.Printf("admission ledger: routed=%d equals jobs=%d + shed=%d across the fleet\n", fleet.Router.Routed, jobs, shed)
	return nil
}

// runBrownout is the slow-shard chaos scenario: shard0 boots with a
// deterministic fault spec adding 800ms to every /v1/ request while the
// router runs with its retry budget armed. Slowness is not death: every
// solve and batch must stay bit-identical to the direct reference, the
// browned-out shard must keep its keys (no cooldown, no failover hops, no
// retry-budget spend), the injected-fault counter must prove the chaos
// layer fired, and the routed/jobs conservation must hold.
func (h *harness) runBrownout() error {
	if err := os.MkdirAll(h.logDir, 0o755); err != nil {
		return err
	}
	const spec = "path=/v1/ latency=800ms"
	// Record the active fault spec next to the process logs, so a CI
	// failure artifact shows exactly which chaos was injected.
	if err := os.WriteFile(filepath.Join(h.logDir, "fault-spec.txt"), []byte(spec+"\n"), 0o644); err != nil {
		return err
	}
	h.shardExtra = map[int][]string{0: {"-fault-spec", spec}}
	h.routerExtra = []string{"-retry-budget", "8"}
	if err := h.boot(); err != nil {
		return err
	}
	ring, err := shard.New(h.shardAddrs, h.replicas)
	if err != nil {
		return err
	}
	h.ring = ring

	// Assemble a workload that provably exercises the browned-out shard:
	// keep drawing problems until shard0 owns at least two keys.
	var reqs []mmlp.SolveRequest
	slowOwned := 0
	for seed := h.seed + 700; len(reqs) < 8 || slowOwned < 2; seed++ {
		if seed > h.seed+10_000 {
			return fmt.Errorf("could not assemble a workload with ≥2 keys on shard0")
		}
		req := fastSet(seed, 1)[0]
		k, err := keyFor(&req)
		if err != nil {
			return err
		}
		if ring.Owner(k) == h.shardAddrs[0] {
			slowOwned++
		}
		reqs = append(reqs, req)
	}

	// Phase A: every solve answers bit-identically despite the brownout.
	for i := range reqs {
		if _, cached, _, err := h.solveBothNormalized(i, &reqs[i]); err != nil {
			return fmt.Errorf("brownout solve pass: %w", err)
		} else if cached {
			return fmt.Errorf("brownout job %d cached on first contact", i)
		}
	}
	fmt.Printf("brownout solves: %d jobs (%d on the slow shard) bit-identical to the direct reference\n", len(reqs), slowOwned)

	// Phase B: the interleaved batch, whose shard0 sub-batch rides through
	// the fault layer, must merge bit-identically too.
	dups := make([]mmlp.SolveRequest, len(reqs))
	for i := range reqs {
		dups[i] = reqs[i]
		dups[i].Instance = gen.Permuted(reqs[i].Instance)
	}
	if err := h.checkBatchIdentity(reqs, dups); err != nil {
		return fmt.Errorf("brownout batch: %w", err)
	}

	// Phase C: the fault layer really fired, only on shard0 — and the
	// router never confused slow with dead: no cooldowns, no failover
	// hops, and the armed retry budget was never spent.
	for i, addr := range h.shardAddrs {
		raw, err := h.scrapeRaw(addr)
		if err != nil {
			return err
		}
		if i == 0 && raw.FaultsInjected == 0 {
			return fmt.Errorf("shard0 reports zero injected faults; the -fault-spec never fired")
		}
		if i != 0 && raw.FaultsInjected != 0 {
			return fmt.Errorf("shard%d reports %d injected faults without a fault spec", i, raw.FaultsInjected)
		}
	}
	fleet, err := h.fleetStats()
	if err != nil {
		return err
	}
	if fleet.Router.ShardDown != 0 || fleet.Router.Retried != 0 {
		return fmt.Errorf("router treated the slow shard as dead (shard_down=%d, retried=%d); slowness must not trigger failover",
			fleet.Router.ShardDown, fleet.Router.Retried)
	}
	if fleet.Router.RetryBudgetExhausted != 0 {
		return fmt.Errorf("retry budget exhausted %d times under a brownout that required no retries", fleet.Router.RetryBudgetExhausted)
	}
	fmt.Printf("brownout: slow shard kept its keys (shard_down=0, retried=0, budget untouched, faults_injected>0 on shard0 only)\n")
	return h.checkConservation(h.shardAddrs)
}

// runOverload is the admission-control scenario: shards boot with -queue 1
// -shed, and the router is stormed with more concurrent distinct slow keys
// than the fleet has worker+queue slots. The overflow must be refused with
// 429 + Retry-After (relayed through the router without marking the shard
// down), clients honouring the hint must eventually land every job with
// bit-identical answers, a propagated deadline expiring behind wedged
// workers must surface as 504 with the deadline_expired counter moving,
// and the admission ledger routed == jobs + shed must balance.
func (h *harness) runOverload() error {
	if err := os.MkdirAll(h.logDir, 0o755); err != nil {
		return err
	}
	h.shardExtraAll = []string{"-queue", "1", "-shed"}
	if err := h.boot(); err != nil {
		return err
	}
	ring, err := shard.New(h.shardAddrs, h.replicas)
	if err != nil {
		return err
	}
	h.ring = ring

	// Phase A: the storm. Fleet capacity is workers+1 queue slot per
	// shard; concurrency beyond it guarantees at least one shard sees a
	// fourth simultaneous request and must shed (the keys are distinct, so
	// coalescing cannot absorb the burst).
	capacity := h.nShards * (h.workers + 1)
	storm := slowSet(h.seed+800, capacity+3)
	type outcome struct {
		norm  []byte
		sheds int
		err   error
	}
	outs := make([]outcome, len(storm))
	var wg sync.WaitGroup
	for i := range storm {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			deadline := time.Now().Add(90 * time.Second)
			for {
				code, body, hdr, err := h.post(h.routerAddr, "/v1/solve", mmlp.ContentTypeJSON, &storm[i], nil)
				if err != nil {
					outs[i].err = fmt.Errorf("storm job %d: %w", i, err)
					return
				}
				if code == http.StatusOK {
					n, _, nerr := normalize(body)
					if nerr != nil {
						outs[i].err = nerr
						return
					}
					outs[i].norm = n
					return
				}
				if code != http.StatusTooManyRequests {
					outs[i].err = fmt.Errorf("storm job %d: status %d (%s), want 200 or 429", i, code, body)
					return
				}
				retryAfter := hdr.Get("Retry-After")
				secs, aerr := strconv.Atoi(retryAfter)
				if aerr != nil || secs < 1 {
					outs[i].err = fmt.Errorf("storm job %d: 429 carried Retry-After %q, want a positive second count", i, retryAfter)
					return
				}
				outs[i].sheds++
				if time.Now().After(deadline) {
					outs[i].err = fmt.Errorf("storm job %d: still shed after 90s of honouring Retry-After", i)
					return
				}
				time.Sleep(time.Duration(secs) * time.Second)
			}
		}(i)
	}
	wg.Wait()
	totalSheds := 0
	for i := range outs {
		if outs[i].err != nil {
			return outs[i].err
		}
		totalSheds += outs[i].sheds
	}
	if totalSheds == 0 {
		return fmt.Errorf("storm of %d concurrent jobs against %d slots was never shed; admission control did not engage", len(storm), capacity)
	}

	// Every storm answer matches the direct reference bit-for-bit: shedding
	// refused work, it never corrupted any.
	for i := range storm {
		code, body, _, err := h.post(h.directAddr, "/v1/solve", mmlp.ContentTypeJSON, &storm[i], nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("direct reference job %d: status %d, err %v", i, code, err)
		}
		dn, _, err := normalize(body)
		if err != nil {
			return err
		}
		if !bytes.Equal(outs[i].norm, dn) {
			return fmt.Errorf("storm job %d: eventual answer differs from the direct reference\nrouter: %s\ndirect: %s", i, outs[i].norm, dn)
		}
	}
	fmt.Printf("overload storm: %d jobs over %d slots, %d refusals all carried Retry-After, every retry eventually landed bit-identically\n",
		len(storm), capacity, totalSheds)

	// The clients' shed count and the shards' shed counters are the same
	// ledger seen from both ends.
	var shedSum int64
	for _, addr := range h.shardAddrs {
		raw, err := h.scrapeRaw(addr)
		if err != nil {
			return err
		}
		shedSum += raw.Shed
	}
	if shedSum != int64(totalSheds) {
		return fmt.Errorf("shards count %d sheds, clients saw %d refusals", shedSum, totalSheds)
	}

	// Phase B: the router's deadline-header surface. A generous deadline
	// rides through the whole chain and answers 200; a malformed one is the
	// client's bug and dies at the router with 400.
	probe := fastSet(h.seed+990, 1)[0]
	code, body, _, err := h.post(h.routerAddr, "/v1/solve", mmlp.ContentTypeJSON, &probe, map[string]string{obs.DeadlineHeader: "60000"})
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("generous-deadline solve: status %d, err %v (%s)", code, err, body)
	}
	code, body, _, err = h.post(h.routerAddr, "/v1/solve", mmlp.ContentTypeJSON, &probe, map[string]string{obs.DeadlineHeader: "soon"})
	if err != nil || code != http.StatusBadRequest {
		return fmt.Errorf("malformed deadline header: status %d, err %v (%s), want 400", code, err, body)
	}
	fmt.Printf("deadline header: parsed and propagated by the router, malformed values rejected with 400\n")

	// The admission ledger balances while all traffic still flows through
	// the router (the direct-to-shard probes below are off-ledger by
	// construction, so the check comes first).
	if err := h.checkConservationShed(h.shardAddrs); err != nil {
		return err
	}

	// Phase C: queue expiry. Wedge every worker of one shard under
	// multi-second solves, then offer a job whose propagated deadline can
	// only expire while it waits in the queue: the shard must answer 504
	// without running the kernel, count a deadline_expired, and free the
	// connection as soon as a worker observes the death.
	//
	// The phase rests on one precondition: the occupiers hold every worker
	// until the probe's deadline has expired. So the occupiers are sized
	// to the host and the kernel first: one solve at heavySet's base size
	// is timed alone on the target, and the agent count is scaled until a
	// solve would take twice the sleep plus the deadline. Each occupier's
	// return time is recorded, so a run that still breaks the precondition
	// fails by naming it rather than as a stray status.
	const (
		occupierSleep = 300 * time.Millisecond
		probeDeadline = 250 * time.Millisecond
		occupierHold  = 2 * (occupierSleep + probeDeadline)
	)
	target := h.shardAddrs[0]
	agents := 700
	t0 := time.Now()
	code, body, _, err = h.post(target, "/v1/solve", mmlp.ContentTypeJSON, &heavySet(h.seed+949, 1, agents)[0], nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("occupier sizing solve: status %d, err %v (%s)", code, err, body)
	}
	if took := time.Since(t0); took < occupierHold {
		agents = int(float64(agents)*occupierHold.Seconds()/took.Seconds()) + 1
	}
	heavy := heavySet(h.seed+950, h.workers, agents)
	var owg sync.WaitGroup
	oerrs := make([]error, len(heavy))
	returned := make([]time.Time, len(heavy))
	for j := range heavy {
		owg.Add(1)
		go func(j int) {
			defer owg.Done()
			code, body, _, err := h.post(target, "/v1/solve", mmlp.ContentTypeJSON, &heavy[j], nil)
			returned[j] = time.Now()
			if err != nil || code != http.StatusOK {
				oerrs[j] = fmt.Errorf("occupier %d: status %d, err %v (%s)", j, code, err, body)
			}
		}(j)
	}
	time.Sleep(occupierSleep) // occupiers dequeued, workers wedged, queue empty
	expProbe := fastSet(h.seed+991, 1)[0]
	start := time.Now()
	code, body, _, err = h.post(target, "/v1/solve", mmlp.ContentTypeJSON, &expProbe,
		map[string]string{obs.DeadlineHeader: strconv.Itoa(int(probeDeadline.Milliseconds()))})
	elapsed := time.Since(start)
	if err != nil {
		return fmt.Errorf("deadline probe: %w", err)
	}
	if elapsed > 30*time.Second {
		return fmt.Errorf("deadline probe hung %v past its 250ms deadline", elapsed)
	}
	owg.Wait()
	for _, oerr := range oerrs {
		if oerr != nil {
			return oerr
		}
	}
	expiry := start.Add(probeDeadline)
	margin := returned[0].Sub(expiry)
	for j, at := range returned {
		if at.Before(expiry) {
			return fmt.Errorf("queue expiry precondition broken: occupier %d (%d agents) returned %v before the probe's %v deadline expired, so the probe could reach a free worker in time (status %d); the heavySet solves no longer outlast the %v sleep plus the deadline",
				j, agents+10*j, expiry.Sub(at).Round(time.Millisecond), probeDeadline, code, occupierSleep)
		}
		margin = min(margin, at.Sub(expiry))
	}
	if code != http.StatusGatewayTimeout {
		return fmt.Errorf("deadline probe: status %d (%s), want 504 for a deadline expired in queue (smallest occupier margin past the deadline %v)",
			code, body, margin.Round(time.Millisecond))
	}
	raw, err := h.scrapeRaw(target)
	if err != nil {
		return err
	}
	if raw.DeadlineExpired < 1 {
		return fmt.Errorf("shard answered 504 but counts %d deadline_expired", raw.DeadlineExpired)
	}
	fmt.Printf("queue expiry: deadline'd probe behind wedged workers answered 504 in %v, deadline_expired=%d, occupiers of %d+ agents, smallest occupier margin past the deadline %v\n",
		elapsed.Round(time.Millisecond), raw.DeadlineExpired, agents, margin.Round(time.Millisecond))

	// Refusing and expiring work must never have looked like shard death.
	fleet, err := h.fleetStats()
	if err != nil {
		return err
	}
	if fleet.Router.ShardDown != 0 || fleet.Router.Retried != 0 {
		return fmt.Errorf("shedding marked shards down (shard_down=%d, retried=%d); a 429 is a healthy answer",
			fleet.Router.ShardDown, fleet.Router.Retried)
	}
	return nil
}
