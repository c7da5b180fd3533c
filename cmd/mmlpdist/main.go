// Command mmlpdist runs the synchronous message-passing protocol on a
// generated instance and reports the locality profile: rounds, message
// counts, byte volume and the largest message per round.
//
// Usage:
//
//	mmlpdist [-family necklace|structured] [-m 8] [-R 3] [-seed 1] [-perround]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	maxminlp "repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/structured"
)

func main() {
	family := flag.String("family", "necklace", "necklace|structured")
	m := flag.Int("m", 8, "instance size parameter")
	rParam := flag.Int("R", 3, "shifting parameter")
	seed := flag.Int64("seed", 1, "random seed (structured family)")
	perRound := flag.Bool("perround", false, "print per-round traffic")
	protocol := flag.String("protocol", "views", "views (anonymous) | records (id-based, compact)")
	flag.Parse()

	if *m < 1 {
		fmt.Fprintf(os.Stderr, "mmlpdist: -m must be ≥ 1, got %d\n", *m)
		os.Exit(2)
	}
	var solver func(context.Context, *structured.Instance, core.Options) (*dist.Result, error)
	switch *protocol {
	case "views":
		solver = dist.SolveDistributed
	case "records":
		solver = dist.SolveDistributedCompact
	default:
		fmt.Fprintf(os.Stderr, "mmlpdist: unknown protocol %q (want views or records)\n", *protocol)
		os.Exit(2)
	}
	var in *maxminlp.Instance
	switch *family {
	case "necklace":
		in = maxminlp.GenerateTriNecklace(*m)
	case "structured":
		in = maxminlp.GenerateStructured(maxminlp.StructuredConfig{
			Objectives: *m, MaxDegK: 3, ExtraCons: *m / 2,
		}, *seed)
	default:
		fmt.Fprintf(os.Stderr, "mmlpdist: unknown family %q\n", *family)
		os.Exit(2)
	}
	if err := in.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "mmlpdist: invalid instance:", err)
		os.Exit(1)
	}
	s, err := structured.FromMMLP(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmlpdist: instance not structured:", err)
		os.Exit(1)
	}
	res, err := solver(context.Background(), s, core.Options{R: *rParam})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmlpdist:", err)
		os.Exit(1)
	}
	fmt.Printf("family=%s m=%d agents=%d R=%d protocol=%s\n", *family, *m, s.N, *rParam, *protocol)
	fmt.Printf("rounds: %d (= 12(R−2)+8, independent of the network size)\n", res.Rounds)
	fmt.Printf("messages: %d   bytes: %d (DAG-compressed %d)   max message: %d B\n",
		res.Stats.Messages, res.Stats.Bytes, res.Stats.CompressedBytes, res.Stats.MaxMessageBytes)
	fmt.Printf("utility ω(x) = %.6g   certified upper bound = %.6g\n",
		s.Utility(res.X), minOf(res.T))
	if *perRound {
		for i, rr := range res.Stats.PerRound {
			fmt.Printf("  round %2d: %5d msgs %8d B (max %d B)\n", i+1, rr.Messages, rr.Bytes, rr.MaxBytes)
		}
	}
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
