// Command mmlpbench runs the experiments of internal/expt and prints their
// tables.
//
// Usage:
//
//	mmlpbench [-e all|e1|e2|e3|e4|e5|e6|e8|e9|e10|e11] [-scale quick|full] [-md]
//
// With -md the tables are emitted as GitHub-flavoured markdown; the
// default is aligned text.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/expt"
)

func main() {
	exp := flag.String("e", "all", "experiment id (all, e1…e6, e8…e11)")
	scaleName := flag.String("scale", "full", "quick|full")
	md := flag.Bool("md", false, "emit markdown tables")
	flag.Parse()

	var scale expt.Scale
	switch *scaleName {
	case "quick":
		scale = expt.Quick
	case "full":
		scale = expt.Full
	default:
		fmt.Fprintf(os.Stderr, "mmlpbench: unknown scale %q (want quick or full)\n", *scaleName)
		os.Exit(2)
	}

	runners := map[string]func(expt.Scale) (*expt.Table, error){
		"e1":  expt.E1RatioSweep,
		"e2":  expt.E2Structured,
		"e3":  expt.E3Adversarial,
		"e4":  expt.E4Baseline,
		"e5":  expt.E5Rounds,
		"e6":  expt.E6Transforms,
		"e8":  expt.E8Scaling,
		"e9":  expt.E9RSweep,
		"e10": expt.E10Ablation,
		"e11": expt.E11Dynamic,
	}

	var tables []*expt.Table
	if *exp == "all" {
		ts, err := expt.All(scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmlpbench:", err)
			os.Exit(1)
		}
		tables = ts
	} else {
		fn, ok := runners[strings.ToLower(*exp)]
		if !ok {
			fmt.Fprintf(os.Stderr, "mmlpbench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		tb, err := fn(scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmlpbench:", err)
			os.Exit(1)
		}
		tables = append(tables, tb)
	}

	for _, tb := range tables {
		if *md {
			tb.Markdown(os.Stdout)
		} else {
			tb.Render(os.Stdout)
		}
	}
}
