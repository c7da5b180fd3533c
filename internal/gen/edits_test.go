package gen

import (
	"reflect"
	"testing"

	"repro/internal/delta"
	"repro/internal/mmlp"
)

// TestRowEditsApply: RowEdits draws exactly n edits of all three ops that
// apply cleanly in order, deterministically in the seed, and leaves its
// instance untouched.
func TestRowEditsApply(t *testing.T) {
	ops := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		base := Random(RandomConfig{Agents: 12, MaxDegI: 3, MaxDegK: 3, ExtraCons: 2, ExtraObjs: 1}, seed).Canonical()
		before := base.Clone()
		edits := RowEdits(base, 5, seed)
		if len(edits) != 5 {
			t.Fatalf("seed %d: %d edits, want 5", seed, len(edits))
		}
		if !reflect.DeepEqual(edits, RowEdits(base, 5, seed)) {
			t.Fatalf("seed %d: edits are not deterministic", seed)
		}
		if _, err := delta.Apply(base, edits); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(base, before) {
			t.Fatalf("seed %d: RowEdits modified its instance", seed)
		}
		for _, e := range edits {
			ops[e.Op]++
		}
	}
	for _, op := range []string{mmlp.EditAdd, mmlp.EditRemove, mmlp.EditReweight} {
		if ops[op] == 0 {
			t.Fatalf("no %s edit in 200 draws: %v", op, ops)
		}
	}
}
