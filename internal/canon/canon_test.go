package canon_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/canon"
	"repro/internal/gen"
	"repro/internal/mmlp"
)

// randomInstance draws a varied-shape instance for the property tests.
func randomInstance(seed int64) *mmlp.Instance {
	rng := rand.New(rand.NewSource(seed))
	return gen.Random(gen.RandomConfig{
		Agents:    8 + rng.Intn(24),
		MaxDegI:   2 + rng.Intn(3),
		MaxDegK:   2 + rng.Intn(3),
		ExtraCons: rng.Intn(8),
		ExtraObjs: rng.Intn(4),
	}, seed)
}

// permute shuffles the row order of both sections and the term order
// within every row — all semantics-preserving rewrites.
func permute(in *mmlp.Instance, rng *rand.Rand) *mmlp.Instance {
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

// TestHashPermutationInvariance: reordering rows and terms never moves the
// key, and Hash never mutates its argument.
func TestHashPermutationInvariance(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		in := randomInstance(seed)
		before := in.Clone()
		key := canon.Hash(in, mmlp.SolveOptions{})
		if !reflect.DeepEqual(in, before) {
			t.Fatalf("seed %d: Hash mutated the instance", seed)
		}
		rng := rand.New(rand.NewSource(seed * 31))
		for trial := 0; trial < 8; trial++ {
			if got := canon.Hash(permute(in, rng), mmlp.SolveOptions{}); got != key {
				t.Fatalf("seed %d trial %d: permuted key %s != %s", seed, trial, got, key)
			}
		}
	}
}

// TestHashCoefficientSensitivity: flipping the low bit of any single
// coefficient, or moving any single agent index, changes the key.
func TestHashCoefficientSensitivity(t *testing.T) {
	in := randomInstance(3)
	key := canon.Hash(in, mmlp.SolveOptions{})
	mutate := func(f func(*mmlp.Instance)) canon.Key {
		m := in.Clone()
		f(m)
		return canon.Hash(m, mmlp.SolveOptions{})
	}
	for i := range in.Cons {
		for j := range in.Cons[i].Terms {
			i, j := i, j
			if got := mutate(func(m *mmlp.Instance) {
				m.Cons[i].Terms[j].Coef = math.Float64frombits(math.Float64bits(m.Cons[i].Terms[j].Coef) ^ 1)
			}); got == key {
				t.Fatalf("constraint %d term %d: coefficient bit-flip kept the key", i, j)
			}
			if got := mutate(func(m *mmlp.Instance) {
				m.Cons[i].Terms[j].Agent += m.NumAgents
			}); got == key {
				t.Fatalf("constraint %d term %d: agent change kept the key", i, j)
			}
		}
	}
	for k := range in.Objs {
		for j := range in.Objs[k].Terms {
			k, j := k, j
			if got := mutate(func(m *mmlp.Instance) {
				m.Objs[k].Terms[j].Coef = math.Float64frombits(math.Float64bits(m.Objs[k].Terms[j].Coef) ^ 1)
			}); got == key {
				t.Fatalf("objective %d term %d: coefficient bit-flip kept the key", k, j)
			}
		}
	}
}

// TestHashStructureSensitivity: changes to the instance shape — the agent
// count, a row added or dropped, a row moved between sections — all change
// the key.
func TestHashStructureSensitivity(t *testing.T) {
	in := randomInstance(4)
	key := canon.Hash(in, mmlp.SolveOptions{})
	cases := map[string]func(*mmlp.Instance){
		"agents":     func(m *mmlp.Instance) { m.NumAgents++ },
		"drop-cons":  func(m *mmlp.Instance) { m.Cons = m.Cons[1:] },
		"drop-objs":  func(m *mmlp.Instance) { m.Objs = m.Objs[1:] },
		"empty-cons": func(m *mmlp.Instance) { m.Cons = append(m.Cons, mmlp.Constraint{}) },
		"cons-to-objs": func(m *mmlp.Instance) {
			m.Objs = append(m.Objs, mmlp.Objective{Terms: m.Cons[0].Terms})
			m.Cons = m.Cons[1:]
		},
	}
	for name, f := range cases {
		m := in.Clone()
		f(m)
		if got := canon.Hash(m, mmlp.SolveOptions{}); got == key {
			t.Fatalf("%s: structural change kept the key", name)
		}
	}
}

// TestHashOptionSensitivity: every option field participates in the key,
// and all single-field variations are mutually distinct.
func TestHashOptionSensitivity(t *testing.T) {
	in := randomInstance(5)
	base := mmlp.SolveOptions{R: 3, BinIters: 100}
	variants := map[string]mmlp.SolveOptions{
		"base":          base,
		"engine":        {Engine: 1, R: 3, BinIters: 100},
		"r":             {R: 4, BinIters: 100},
		"bin-iters":     {R: 3, BinIters: 50},
		"special-cases": {R: 3, BinIters: 100, DisableSpecialCases: true},
		"self-check":    {R: 3, BinIters: 100, SelfCheck: true},
	}
	seen := make(map[canon.Key]string)
	for name, o := range variants {
		k := canon.Hash(in, o)
		if prev, dup := seen[k]; dup {
			t.Fatalf("options %q and %q share a key", name, prev)
		}
		seen[k] = name
	}
}

// TestHashNormalization: zero-valued options hash like their defaults, so
// equivalent spellings of one configuration share a cache line.
func TestHashNormalization(t *testing.T) {
	in := randomInstance(6)
	if canon.Hash(in, mmlp.SolveOptions{}) != canon.Hash(in, mmlp.SolveOptions{R: 3, BinIters: 100}) {
		t.Fatal("zero options do not hash like the defaults")
	}
	if canon.Hash(in, mmlp.SolveOptions{R: 2}) == canon.Hash(in, mmlp.SolveOptions{R: 3}) {
		t.Fatal("explicit non-default R aliased the default")
	}
}

// TestHashDistinguishesInstances: a quick birthday check — distinct random
// instances get distinct keys.
func TestHashDistinguishesInstances(t *testing.T) {
	seen := make(map[canon.Key]int64)
	for seed := int64(1); seed <= 50; seed++ {
		k := canon.Hash(randomInstance(seed), mmlp.SolveOptions{})
		if prev, dup := seen[k]; dup {
			t.Fatalf("seeds %d and %d collide", prev, seed)
		}
		seen[k] = seed
	}
}

// FuzzHashPermutationInvariance drives the permutation property from the
// fuzzer: any seed pair must keep the key stable under reordering, and
// the permuted instance's encoding must decode to in.Canonical() and
// re-encode to the same bytes. That one property ties together the
// encoder's rewrite from the canonical copy, mmlp.CanonicalInto and the
// one-pass decoder.
func FuzzHashPermutationInvariance(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(7), int64(11))
	f.Add(int64(42), int64(1))
	f.Fuzz(func(t *testing.T, seed, shuffleSeed int64) {
		in := randomInstance(seed)
		key := canon.Hash(in, mmlp.SolveOptions{})
		p := permute(in, rand.New(rand.NewSource(shuffleSeed)))
		if got := canon.Hash(p, mmlp.SolveOptions{}); got != key {
			t.Fatalf("permuted key %s != %s", got, key)
		}
		payload := canon.EncodeSolve(p, mmlp.SolveOptions{})
		dec, o, err := canon.DecodeSolve(payload, nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(dec, in.Canonical()) {
			t.Fatalf("decoded instance differs from Canonical():\n got %+v\nwant %+v", dec, in.Canonical())
		}
		if re := canon.EncodeSolve(dec, o); !bytes.Equal(re, payload) {
			t.Fatal("decoded instance re-encodes differently")
		}
	})
}
