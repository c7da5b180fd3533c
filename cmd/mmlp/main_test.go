package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	maxminlp "repro"
)

func TestGenAllFamilies(t *testing.T) {
	dir := t.TempDir()
	for _, family := range []string{"random", "structured", "sensor", "bandwidth", "equations", "necklace"} {
		out := filepath.Join(dir, family+".json")
		if err := cmdGen([]string{"-family", family, "-out", out, "-m", "6", "-agents", "10"}); err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		in, err := maxminlp.ReadInstanceFile(out)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if in.NumAgents == 0 {
			t.Fatalf("%s: empty instance", family)
		}
	}
	if err := cmdGen([]string{"-family", "nope"}); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestInfoAndSolve(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "inst.json")
	if err := cmdGen([]string{"-family", "random", "-out", path, "-agents", "8"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfo([]string{"-in", path}); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"local", "dist", "exact", "rational", "safe"} {
		if err := cmdSolve([]string{"-in", path, "-algo", algo}); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
	// -algo exact prints the bound of a verified dual certificate, and an
	// instance without a finite optimum is unbounded.
	in, err := maxminlp.ReadInstanceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, cert, err := maxminlp.SolveExactCertified(in)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("certified optimum upper bound (verified dual certificate): %.6g ", cert.Bound)
	if out := stdout(t, "-in", path, "-algo", "exact"); !strings.Contains(out, want) {
		t.Fatalf("exact printed\n%s\nwant a line starting %q", out, want)
	}
	// -algo rational prints the exact optimum, which no certificate
	// backs, under its own label.
	rat, err := maxminlp.SolveExactRational(in)
	if err != nil {
		t.Fatal(err)
	}
	want = fmt.Sprintf("exact rational optimum (rounded to float64): %.6g ", rat.UpperBound)
	if out := stdout(t, "-in", path, "-algo", "rational"); !strings.Contains(out, want) {
		t.Fatalf("rational printed\n%s\nwant a line starting %q", out, want)
	}
	free := maxminlp.NewInstance(2)
	free.AddObjective(0, 1, 1, 1)
	free.AddConstraint(0, 1)
	freePath := filepath.Join(dir, "free.json")
	if err := free.WriteFile(freePath); err != nil {
		t.Fatal(err)
	}
	if out := stdout(t, "-in", freePath, "-algo", "exact"); out != "status: unbounded\n" {
		t.Fatalf("exact on an instance without a finite optimum printed %q", out)
	}
	if err := cmdSolve([]string{"-in", path, "-algo", "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	sol := filepath.Join(dir, "sol.json")
	if err := cmdSolve([]string{"-in", path, "-algo", "local", "-sol", sol}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(sol); err != nil || st.Size() == 0 {
		t.Fatalf("solution file missing or empty: %v", err)
	}
}

func TestSolveMissingFile(t *testing.T) {
	if err := cmdSolve([]string{"-in", "/nonexistent.json"}); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := cmdInfo([]string{"-in", "/nonexistent.json"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// stdout runs cmdSolve with args and returns what it printed.
func stdout(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	orig := os.Stdout
	os.Stdout = w
	err = cmdSolve(args)
	os.Stdout = orig
	w.Close()
	b := <-out
	r.Close()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return string(b)
}
