package engine_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
)

func wireInstance(seed int64) *mmlp.Instance {
	rng := rand.New(rand.NewSource(seed))
	return gen.Random(gen.RandomConfig{
		Agents:    10 + rng.Intn(14),
		MaxDegI:   2 + rng.Intn(2),
		MaxDegK:   2 + rng.Intn(2),
		ExtraCons: rng.Intn(6),
		ExtraObjs: rng.Intn(3),
	}, seed)
}

// shuffled returns a semantics-preserving permutation of in: rows and
// in-row terms reordered.
func shuffled(in *mmlp.Instance, seed int64) *mmlp.Instance {
	rng := rand.New(rand.NewSource(seed))
	out := in.Clone()
	rng.Shuffle(len(out.Cons), func(a, b int) { out.Cons[a], out.Cons[b] = out.Cons[b], out.Cons[a] })
	rng.Shuffle(len(out.Objs), func(a, b int) { out.Objs[a], out.Objs[b] = out.Objs[b], out.Objs[a] })
	for _, c := range out.Cons {
		ts := c.Terms
		rng.Shuffle(len(ts), func(a, b int) { ts[a], ts[b] = ts[b], ts[a] })
	}
	for _, o := range out.Objs {
		ts := o.Terms
		rng.Shuffle(len(ts), func(a, b int) { ts[a], ts[b] = ts[b], ts[a] })
	}
	return out
}

func mustEqualResults(t *testing.T, tag string, s1, s2 *engine.Solution, d1, d2 *engine.DistInfo) {
	t.Helper()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("%s: solutions differ:\n json %+v\ncanon %+v", tag, s1, s2)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("%s: dist info differs:\n json %+v\ncanon %+v", tag, d1, d2)
	}
}

// TestSolveCanonBytesBitIdentity: for every engine, solving a canon
// payload — encoded from a shuffled spelling of the instance — returns
// bit-identical results to the JSON path solving the original.
func TestSolveCanonBytesBitIdentity(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []mmlp.Engine{mmlp.EngineCentral, mmlp.EngineDistributed, mmlp.EngineDistributedCompact} {
		for seed := int64(1); seed <= 6; seed++ {
			in := wireInstance(seed)
			o := engine.Options{Engine: kind, R: 3}
			jsol, jinfo, err := engine.Solve(ctx, in, o)
			if err != nil {
				t.Fatalf("%v seed %d: json path: %v", kind, seed, err)
			}
			payload := engine.EncodeCanon(shuffled(in, seed*7), o)
			csol, cinfo, cached, err := engine.SolveCanonBytes(ctx, payload, engine.NewScratch(), nil)
			if err != nil {
				t.Fatalf("%v seed %d: canon path: %v", kind, seed, err)
			}
			if cached {
				t.Fatalf("%v seed %d: cacheless canon solve reported cached", kind, seed)
			}
			mustEqualResults(t, kind.String(), jsol, csol, jinfo, cinfo)
		}
	}
}

// TestSolveCanonBytesCrossEncodingCache: the two encodings share one cache
// line in both directions — a JSON solve warms the canon request and vice
// versa — because both key on the same canonical hash.
func TestSolveCanonBytesCrossEncodingCache(t *testing.T) {
	ctx := context.Background()
	in := wireInstance(3)
	o := engine.Options{Engine: mmlp.EngineDistributed, R: 3}
	payload := engine.EncodeCanon(shuffled(in, 99), o)

	// JSON first, canon second.
	ca := engine.NewCache(engine.CacheOptions{MaxBytes: 1 << 20})
	jsol, jinfo, cached, err := engine.SolveCached(ctx, in, o, nil, ca)
	if err != nil || cached {
		t.Fatalf("json solve: cached=%v err=%v", cached, err)
	}
	csol, cinfo, cached, err := engine.SolveCanonBytes(ctx, payload, nil, ca)
	if err != nil {
		t.Fatalf("canon solve: %v", err)
	}
	if !cached {
		t.Fatal("canon request missed the cache the JSON solve warmed")
	}
	mustEqualResults(t, "json→canon", jsol, csol, jinfo, cinfo)

	// Canon first, JSON second.
	ca = engine.NewCache(engine.CacheOptions{MaxBytes: 1 << 20})
	csol, cinfo, cached, err = engine.SolveCanonBytes(ctx, payload, nil, ca)
	if err != nil || cached {
		t.Fatalf("canon solve: cached=%v err=%v", cached, err)
	}
	jsol, jinfo, cached, err = engine.SolveCached(ctx, in, o, nil, ca)
	if err != nil {
		t.Fatalf("json solve: %v", err)
	}
	if !cached {
		t.Fatal("JSON request missed the cache the canon solve warmed")
	}
	mustEqualResults(t, "canon→json", jsol, csol, jinfo, cinfo)
}

// TestSolveCanonBytesInvalid: malformed payloads and valid payloads of
// invalid instances both surface as mmlp.ErrInvalid, and neither pollutes
// the cache.
func TestSolveCanonBytesInvalid(t *testing.T) {
	ctx := context.Background()
	ca := engine.NewCache(engine.CacheOptions{MaxBytes: 1 << 20})

	if _, _, _, err := engine.SolveCanonBytes(ctx, []byte("not canon at all"), nil, ca); !errors.Is(err, mmlp.ErrInvalid) {
		t.Fatalf("malformed payload: got %v, want mmlp.ErrInvalid", err)
	}

	// Structurally canonical payload of a semantically invalid instance
	// (negative coefficient): decodes fine, fails Validate.
	bad := mmlp.New(2)
	bad.AddConstraint(0, -1.0)
	bad.AddObjective(1, 1.0)
	payload := engine.EncodeCanon(bad, engine.Options{})
	if _, _, _, err := engine.SolveCanonBytes(ctx, payload, nil, ca); !errors.Is(err, mmlp.ErrInvalid) {
		t.Fatalf("invalid instance: got %v, want mmlp.ErrInvalid", err)
	}
	if st := ca.Stats(); st.Entries != 0 {
		t.Fatalf("failed canon solves were cached: %d entries", st.Entries)
	}
}

// TestWarmCanonSolveAllocBudget pins the canon path's steady-state
// allocations on a warm scratch with caching disabled (every run decodes
// and solves). The budget matches the JSON path's: the decode arena, like
// the canonicalization copy, is reused.
func TestWarmCanonSolveAllocBudget(t *testing.T) {
	ctx := context.Background()
	in := gen.Random(gen.RandomConfig{Agents: 24, MaxDegI: 3, MaxDegK: 3, ExtraCons: 6, ExtraObjs: 3}, 1)
	payload := engine.EncodeCanon(in, engine.Options{R: 3, DisableSpecialCases: true})
	sc := engine.NewScratch()
	solve := func() {
		if _, _, _, err := engine.SolveCanonBytes(ctx, payload, sc, nil); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm every arena
	if avg := testing.AllocsPerRun(100, solve); avg > warmSolveAllocBudget {
		t.Fatalf("warm canon solve allocates %.1f objects, budget %d", avg, warmSolveAllocBudget)
	}
}
