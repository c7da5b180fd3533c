// Command mmlp generates, inspects and solves max-min LP instances.
//
// Usage:
//
//	mmlp gen   -family random|structured|sensor|bandwidth|equations|necklace \
//	           -out inst.json [-agents N] [-degi D] [-degk D] [-seed S] [-m M]
//	mmlp info  -in inst.json
//	mmlp solve -in inst.json -algo local|dist|exact|rational|safe [-R 3] [-sol out.json]
//
// Instances are JSON files in the library's schema (see the mmlp package).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	maxminlp "repro"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "solve":
		err = cmdSolve(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmlp:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mmlp {gen|info|solve} [flags]  (run a subcommand with -h for details)")
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	family := fs.String("family", "random", "random|structured|sensor|bandwidth|equations|necklace")
	out := fs.String("out", "", "output file (default stdout)")
	agents := fs.Int("agents", 20, "agent count (random)")
	degI := fs.Int("degi", 3, "max constraint degree ΔI (random)")
	degK := fs.Int("degk", 3, "max objective degree ΔK (random/structured)")
	seed := fs.Int64("seed", 1, "random seed")
	m := fs.Int("m", 8, "size parameter (structured objectives / necklace m / sensors / customers)")
	fs.Parse(args)

	var in *maxminlp.Instance
	switch *family {
	case "random":
		in = maxminlp.GenerateRandom(maxminlp.RandomConfig{
			Agents: *agents, MaxDegI: *degI, MaxDegK: *degK,
			ExtraCons: *agents / 4, ExtraObjs: *agents / 8,
		}, *seed)
	case "structured":
		in = maxminlp.GenerateStructured(maxminlp.StructuredConfig{
			Objectives: *m, MaxDegK: *degK, ExtraCons: *m / 2,
		}, *seed)
	case "sensor":
		in = maxminlp.GenerateSensorGrid(maxminlp.SensorGridConfig{
			Width: 6, Height: 6, Sensors: *m, Fan: 3,
		}, *seed)
	case "bandwidth":
		in = maxminlp.GenerateBandwidth(maxminlp.BandwidthConfig{
			Links: 4 * *m, Customers: *m, PathsPerCustomer: 3, MaxPathLen: 5,
		}, *seed)
	case "equations":
		in = maxminlp.GenerateEquations(maxminlp.EquationsConfig{
			Vars: *m, Rows: *m, Density: 0.4,
		}, *seed)
	case "necklace":
		in = maxminlp.GenerateTriNecklace(*m)
	default:
		return fmt.Errorf("unknown family %q", *family)
	}
	if *out == "" {
		return in.Encode(os.Stdout)
	}
	return in.WriteFile(*out)
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	path := fs.String("in", "", "instance file")
	fs.Parse(args)
	in, err := maxminlp.ReadInstanceFile(*path)
	if err != nil {
		return err
	}
	st := in.Stats()
	fmt.Println(st)
	fmt.Printf("trivial upper bound: %.6g\n", in.TrivialUpperBound())
	fmt.Printf("theorem-1 bound at R=3: %.4f (threshold %.4f)\n",
		maxminlp.RatioBound(st.DegreeI, st.DegreeK, 3),
		maxminlp.LocalityThreshold(st.DegreeI, st.DegreeK))
	return nil
}

func cmdSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	path := fs.String("in", "", "instance file")
	algo := fs.String("algo", "local", "local|dist|exact|rational|safe")
	rParam := fs.Int("R", 3, "shifting parameter (local/dist)")
	solOut := fs.String("sol", "", "write the solution vector as JSON to this file")
	fs.Parse(args)
	in, err := maxminlp.ReadInstanceFile(*path)
	if err != nil {
		return err
	}
	var sol *maxminlp.Solution
	bound := "certified optimum upper bound"
	switch *algo {
	case "local":
		sol, err = maxminlp.SolveLocal(in, maxminlp.LocalOptions{R: *rParam})
	case "dist":
		var info *maxminlp.DistInfo
		sol, info, err = maxminlp.SolveLocalDistributed(in, maxminlp.LocalOptions{R: *rParam})
		if err == nil {
			fmt.Printf("distributed: rounds=%d messages=%d bytes=%d maxMessage=%dB\n",
				info.Rounds, info.Messages, info.Bytes, info.MaxMessageBytes)
		}
	case "exact":
		sol, _, err = maxminlp.SolveExactCertified(in)
		if errors.Is(err, maxminlp.ErrNotOptimal) {
			sol, err = &maxminlp.Solution{Status: maxminlp.StatusUnbounded}, nil
		}
		bound += " (verified dual certificate)"
	case "rational":
		sol, err = maxminlp.SolveExactRational(in)
		bound = "exact rational optimum (rounded to float64)"
	case "safe":
		sol, err = maxminlp.SolveSafe(in)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if err != nil {
		return err
	}
	fmt.Printf("status: %v\n", sol.Status)
	if sol.Status == maxminlp.StatusUnbounded {
		return nil
	}
	fmt.Printf("utility: %.6g\n", sol.Utility)
	if sol.UpperBound > 0 {
		fmt.Printf("%s: %.6g (gap ≤ %.3fx)\n", bound, sol.UpperBound, sol.UpperBound/sol.Utility)
	}
	if *solOut != "" {
		f, err := os.Create(*solOut)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		if err := enc.Encode(sol.X); err != nil {
			return err
		}
		return f.Close()
	}
	return nil
}
