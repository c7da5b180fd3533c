package delta_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/canon"
	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/mmlp"
)

// checkApply runs Apply and the reference on one edit set and requires
// the same outcome: the same error message, or a canonical result hashing
// like the reference's — with base's encoding unchanged either way.
func checkApply(t *testing.T, name string, base *mmlp.Instance, edits []mmlp.RowEdit) {
	t.Helper()
	before := canon.EncodeSolve(base, mmlp.SolveOptions{})
	got, err := delta.Apply(base, edits)
	want, wantErr := referenceApply(base, edits)
	if !bytes.Equal(canon.EncodeSolve(base, mmlp.SolveOptions{}), before) {
		t.Fatalf("%s: Apply changed its base", name)
	}
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() || !errors.Is(err, mmlp.ErrInvalid) {
			t.Fatalf("%s: err = %v, want ErrInvalid with the reference's %q", name, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: Apply failed (%v) where the reference succeeds", name, err)
	}
	if got.Canonical() != got {
		t.Fatalf("%s: Apply's result is not canonical", name)
	}
	if canon.Hash(got, mmlp.SolveOptions{}) != canon.Hash(want, mmlp.SolveOptions{}) {
		t.Fatalf("%s: Apply's result differs from the reference's", name)
	}
}

// TestApplyCanonicalSequences: sequences of add, remove and reweight over
// every family leave a canonical instance equal to the reference's, and
// the base untouched.
func TestApplyCanonicalSequences(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for name, in := range families(seed) {
			base := in.Canonical()
			for e := int64(0); e < 10; e++ {
				checkApply(t, name, base, gen.RowEdits(base, 1+int(e), 10*seed+e))
			}
		}
	}
}

// TestApplyInvalidEditMessages: an edit that would write an invalid row,
// or names no row, fails with exactly the reference's message.
func TestApplyInvalidEditMessages(t *testing.T) {
	base := pathBase()
	cases := map[string][]mmlp.RowEdit{
		"zero-coef":       {{Op: mmlp.EditReweight, Kind: mmlp.EditConstraint, Match: terms(1, 1, 2, 1), Terms: terms(1, 0, 2, 1)}},
		"nan-coef":        {{Op: mmlp.EditAdd, Kind: mmlp.EditObjective, Terms: terms(0, math.NaN())}},
		"inf-coef":        {{Op: mmlp.EditAdd, Kind: mmlp.EditConstraint, Terms: terms(0, math.Inf(1), 1, 1)}},
		"negative-agent":  {{Op: mmlp.EditAdd, Kind: mmlp.EditConstraint, Terms: terms(-1, 1)}},
		"agent-too-large": {{Op: mmlp.EditAdd, Kind: mmlp.EditObjective, Terms: terms(4, 1)}},
		"duplicate-agent": {{Op: mmlp.EditAdd, Kind: mmlp.EditConstraint, Terms: terms(2, 1, 2, 3)}},
		"no-such-row":     {{Op: mmlp.EditRemove, Kind: mmlp.EditObjective, Match: terms(0, 1, 3, 1)}},
		"removed-twice": {
			{Op: mmlp.EditRemove, Kind: mmlp.EditConstraint, Match: terms(0, 1, 1, 1)},
			{Op: mmlp.EditRemove, Kind: mmlp.EditConstraint, Match: terms(0, 1, 1, 1)},
		},
		"bad-kind": {{Op: mmlp.EditAdd, Kind: "row", Terms: terms(0, 1)}},
	}
	for name, edits := range cases {
		if _, err := delta.Apply(base, edits); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		checkApply(t, name, base, edits)
	}
	_, err := delta.Apply(base, cases["zero-coef"])
	if want := "edit 0: invalid max-min LP instance: coefficient 0 for agent 1 (want strictly positive and finite)"; err.Error() != want {
		t.Fatalf("zero coefficient: %q, want %q", err, want)
	}
}
