package engine_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
)

// spliceFamily builds one instance of an in-repo family, picked and seeded
// by the fuzzer; the long families are long enough that an edit's output
// ball can leave agents out.
func spliceFamily(family uint8, seed int64) *mmlp.Instance {
	switch family % 8 {
	case 0:
		return gen.Random(gen.RandomConfig{Agents: 24, MaxDegI: 3, MaxDegK: 3, ExtraCons: 3, ExtraObjs: 2, ZeroOne: seed%2 == 0}, seed)
	case 1:
		return gen.RandomStructured(gen.StructuredConfig{Objectives: 16, MaxDegK: 3, ExtraCons: 3}, seed)
	case 2:
		return gen.TriNecklace(24 + int(uint64(seed)%16))
	case 3:
		in, _, _ := gen.LayeredNecklace(24 + int(uint64(seed)%16))
		return in
	case 4:
		return gen.LayeredTree(4 + int(uint64(seed)%2))
	case 5:
		return gen.SensorGrid(gen.SensorGridConfig{Width: 16, Height: 3, Sensors: 20, Fan: 2}, seed)
	case 6:
		return gen.Bandwidth(gen.BandwidthConfig{Links: 20, Customers: 8, PathsPerCustomer: 2, MaxPathLen: 3}, seed)
	default:
		return gen.Equations(gen.EquationsConfig{Vars: 10, Rows: 6, Density: 0.3}, seed)
	}
}

// FuzzDeltaSplice: a delta priced against a cached base — spliced when the
// structured forms align, cold otherwise — answers with the status and the
// bits of x, utility and upper bound of a cold SolveScratch of
// Apply(base, edits), for every family, edit set and R in 2–5.
func FuzzDeltaSplice(f *testing.F) {
	f.Add(uint8(2), int64(1), uint8(1), uint8(2), false)
	f.Add(uint8(0), int64(7), uint8(3), uint8(1), true)
	f.Fuzz(func(t *testing.T, family uint8, seed int64, nEdits, r uint8, special bool) {
		ctx := context.Background()
		in := spliceFamily(family, seed)
		opts := engine.Options{R: 2 + int(r%4), DisableSpecialCases: !special}
		ca := engine.NewCache(engine.CacheOptions{})
		base := seedBase(t, ca, in, opts)
		cin := in.Canonical()
		edits := gen.RowEdits(cin, 1+int(nEdits%4), seed)
		edited, err := delta.Apply(cin, edits)
		if err != nil {
			t.Fatalf("generated edits do not apply: %v", err)
		}
		cold, _, coldErr := engine.SolveScratch(ctx, edited, opts, engine.NewScratch())
		sol, _, _, err := engine.SolveDelta(ctx, base, edits, engine.NewScratch(), ca)
		if (err != nil) != (coldErr != nil) {
			t.Fatalf("delta err %v, cold err %v", err, coldErr)
		}
		if err != nil {
			return
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if sol.Status != cold.Status || !same(sol.Utility, cold.Utility) || !same(sol.UpperBound, cold.UpperBound) || len(sol.X) != len(cold.X) {
			t.Fatalf("delta (%v, %v, %v) vs cold (%v, %v, %v)",
				sol.Status, sol.Utility, sol.UpperBound, cold.Status, cold.Utility, cold.UpperBound)
		}
		for v := range sol.X {
			if !same(sol.X[v], cold.X[v]) {
				t.Fatalf("x[%d]: delta %v, cold %v", v, sol.X[v], cold.X[v])
			}
		}
	})
}
