// Dynamic: local algorithms are dynamic graph algorithms with
// constant-time updates (§1.3 of the paper). A coefficient change can only
// influence outputs within the algorithm's locality radius, so after a
// local modification only a constant-size neighbourhood needs recomputing —
// no matter how large the network is.
//
// This example perturbs one constraint of a large cycle instance and
// compares a full re-solve against an incremental one, the sequence a
// spliced delta runs in the serving engine: delta.Scratch.Plan finds the
// agents within the kernel's radius-(4r+3) reach of the change and the
// output ball around it, Scratch.TStage re-prices exactly those agents,
// and Scratch.Tail re-derives the cheap stages on the ball alone. The
// outputs are bit-identical, the recomputed region is constant, and agents
// on the far side of the cycle keep their exact old values.
package main

import (
	"fmt"
	"log"
	"time"

	maxminlp "repro"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/structured"
)

func main() {
	const m = 500 // 1500 agents on the cycle
	const R = 3

	in := maxminlp.GenerateTriNecklace(m)
	s1, err := structured.FromMMLP(in)
	if err != nil {
		log.Fatal(err)
	}

	mod := in.Clone()
	mod.Cons[0].Terms[0].Coef = 2 // one local change
	s2, err := structured.FromMMLP(mod)
	if err != nil {
		log.Fatal(err)
	}

	old, err := core.Solve(s1, core.Options{R: R})
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	full, err := core.Solve(s2, core.Options{R: R})
	if err != nil {
		log.Fatal(err)
	}
	fullTime := time.Since(start)

	base := old.Own() // the solved trace, indexed as the base of a splice
	var ps delta.Scratch
	var sc core.Scratch
	start = time.Now()
	dirty, ball, err := ps.Plan(s1, s2, core.TRadius(R-2), core.OutputRadius(R-2))
	if err != nil {
		log.Fatal(err)
	}
	t, err := sc.TStage(nil, s2, core.Options{R: R, Workers: 1}, dirty, base.T)
	if err != nil {
		log.Fatal(err)
	}
	inc, err := sc.Tail(s2, core.Options{R: R}, t, ball, base)
	if err != nil {
		log.Fatal(err)
	}
	incTime := time.Since(start)

	same := 0
	for v := range full.X {
		if full.X[v] == inc.X[v] {
			same++
		}
	}
	unchanged := 0
	for v := range old.X {
		if old.X[v] == inc.X[v] {
			unchanged++
		}
	}

	fmt.Printf("network: %d agents on a cycle, one constraint coefficient changed\n", s1.N)
	fmt.Printf("full re-solve:      %8v\n", fullTime)
	fmt.Printf("incremental update: %8v (recomputed %d/%d t-values)\n",
		incTime, len(dirty), s2.N)
	fmt.Printf("incremental output matches full recompute on %d/%d agents (bit-exact)\n",
		same, len(full.X))
	fmt.Printf("agents keeping their exact pre-change output: %d/%d\n", unchanged, len(old.X))
	fmt.Printf("locality radius at R=%d: %d edges — everything beyond is provably untouched\n",
		R, core.OutputRadius(R-2))
}
