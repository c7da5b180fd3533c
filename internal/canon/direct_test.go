package canon

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/mmlp"
)

// encodeSorted is the reference the encoder is held to, built without
// it: AppendSolve's header for an instance with no rows (minus its two
// one-byte zero row counts), then each section's rows encoded with their
// terms sorted, ordered by bytes.Compare on those encodings.
func encodeSorted(in *mmlp.Instance, o mmlp.SolveOptions) []byte {
	dst := AppendSolve(nil, &mmlp.Instance{NumAgents: in.NumAgents}, o)
	dst = dst[:len(dst)-2]
	dst = sortedSection(dst, in.Cons)
	return sortedSection(dst, in.Objs)
}

func sortedSection[R mmlp.Row](dst []byte, rows []R) []byte {
	var encs [][]byte
	for _, r := range rows {
		ts := slices.Clone(mmlp.Constraint(r).Terms)
		slices.SortFunc(ts, mmlp.CompareTerm)
		enc := binary.BigEndian.AppendUint32(nil, uint32(len(ts)))
		for _, t := range ts {
			enc = binary.BigEndian.AppendUint64(enc, uint64(int64(t.Agent))^1<<63)
			enc = binary.BigEndian.AppendUint64(enc, math.Float64bits(t.Coef))
		}
		encs = append(encs, enc)
	}
	slices.SortFunc(encs, bytes.Compare)
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	return append(dst, bytes.Join(encs, nil)...)
}

// shuffled returns a copy of in with the rows of the chosen sections, and
// every row's terms in them, in random order.
func shuffled(in *mmlp.Instance, rng *rand.Rand, cons, objs bool) *mmlp.Instance {
	out := in.Clone()
	if cons {
		rng.Shuffle(len(out.Cons), func(a, b int) { out.Cons[a], out.Cons[b] = out.Cons[b], out.Cons[a] })
		for _, c := range out.Cons {
			rng.Shuffle(len(c.Terms), func(a, b int) { c.Terms[a], c.Terms[b] = c.Terms[b], c.Terms[a] })
		}
	}
	if objs {
		rng.Shuffle(len(out.Objs), func(a, b int) { out.Objs[a], out.Objs[b] = out.Objs[b], out.Objs[a] })
		for _, o := range out.Objs {
			rng.Shuffle(len(o.Terms), func(a, b int) { o.Terms[a], o.Terms[b] = o.Terms[b], o.Terms[a] })
		}
	}
	return out
}

// TestDirectEncodingMatchesSorted: a canonical instance written straight
// into the message encodes to exactly the bytes of the sorting reference,
// for random instances under random row and term permutations — and so
// does a permuted instance, whichever row first breaks the order. A
// permutation of one section only makes the encoder restart at the
// section boundary: after a canonical constraint section when only the
// objectives are out of order, at the first constraint otherwise.
func TestDirectEncodingMatchesSorted(t *testing.T) {
	// Negative agents, duplicate rows and equal-agent terms: invalid
	// instances hash too, and their order must agree with the bytes'.
	odd := mmlp.New(4)
	odd.AddConstraint(-2, 1, 3, 1)
	odd.AddConstraint(-2, 1, 3, 1)
	odd.AddConstraint(1, 2, 1, 0.5)
	odd.AddObjective(0, 1)
	odd.AddObjective(-1, 3, 2, 1)
	cases := []*mmlp.Instance{odd, gen.TriNecklace(5)}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cases = append(cases, gen.Random(gen.RandomConfig{
			Agents: 4 + rng.Intn(30), MaxDegI: 1 + rng.Intn(4), MaxDegK: 1 + rng.Intn(4),
			ExtraCons: rng.Intn(10), ExtraObjs: rng.Intn(5), ZeroOne: seed%3 == 0,
		}, seed))
	}
	o := mmlp.SolveOptions{R: 4}
	halves := 0 // permutations with exactly one section out of order
	for c, in := range cases {
		rng := rand.New(rand.NewSource(int64(c)))
		want := encodeSorted(in, o)
		canonical := in.Canonical()
		for trial := 0; trial < 6; trial++ {
			p := shuffled(in, rng, true, true)
			if got := encodeSorted(p, o); !bytes.Equal(got, want) {
				t.Fatalf("case %d trial %d: the sorting reference depends on row or term order", c, trial)
			}
			if got := EncodeSolve(p, o); !bytes.Equal(got, want) {
				t.Fatalf("case %d trial %d: permuted instance encodes differently from the sorting reference", c, trial)
			}
			if got := EncodeSolve(p.Canonical(), o); !bytes.Equal(got, want) {
				t.Fatalf("case %d trial %d: direct encoding of the canonical form differs from the sorting reference", c, trial)
			}
			for _, objs := range []bool{false, true} {
				h := shuffled(canonical, rng, !objs, objs)
				if h.Canonical() != h {
					halves++
				}
				if got := EncodeSolve(h, o); !bytes.Equal(got, want) {
					t.Fatalf("case %d trial %d: instance with one section permuted (objectives: %v) encodes differently from the sorting reference",
						c, trial, objs)
				}
			}
		}
	}
	if halves == 0 {
		t.Fatal("no permutation left one section canonical and the other out of order")
	}
}

// TestHashCanonicalColdAllocs: with the hasher pool emptied by two
// collections, hashing a canonical 3,000-agent necklace costs a constant
// number of allocations (hasher, digest, one presized message), not one
// row buffer per row.
func TestHashCanonicalColdAllocs(t *testing.T) {
	in := gen.TriNecklace(1000).Canonical()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Hash(in, mmlp.SolveOptions{})
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 16 {
		t.Fatalf("cold Hash of a canonical necklace (%d rows) allocated %d objects, want O(1)",
			len(in.Cons)+len(in.Objs), n)
	}
}

// TestDecodeColdAllocs: decoding the canonical 3,000-agent necklace into a
// fresh DecodeScratch costs one allocation per backing (both sections' row
// headers and the term backing), not one per doubling. The race detector
// does not elide slices.Grow's temporary, so it reads two per backing.
func TestDecodeColdAllocs(t *testing.T) {
	payload := EncodeSolve(gen.TriNecklace(1000), mmlp.SolveOptions{})
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := DecodeSolve(payload, new(DecodeScratch)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("cold DecodeSolve of a %d-byte necklace payload allocated %.0f objects, want ≤ 6", len(payload), allocs)
	}
}
