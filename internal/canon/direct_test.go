package canon

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/gen"
	"repro/internal/mmlp"
)

// encodeSorted is appendSolve with both sections forced through
// appendSorted, the path every non-canonical instance takes. Its header
// is AppendSolve's for an instance with no rows, minus the two one-byte
// zero row counts.
func encodeSorted(in *mmlp.Instance, o mmlp.SolveOptions) []byte {
	dst := AppendSolve(nil, &mmlp.Instance{NumAgents: in.NumAgents}, o)
	dst = dst[:len(dst)-2]
	s := &hasher{}
	dst = binary.AppendUvarint(dst, uint64(len(in.Cons)))
	dst = appendSorted(s, dst, in.Cons)
	dst = binary.AppendUvarint(dst, uint64(len(in.Objs)))
	return appendSorted(s, dst, in.Objs)
}

// shuffled returns a copy of in with its rows and every row's terms in
// random order.
func shuffled(in *mmlp.Instance, rng *rand.Rand) *mmlp.Instance {
	out := in.Clone()
	rng.Shuffle(len(out.Cons), func(a, b int) { out.Cons[a], out.Cons[b] = out.Cons[b], out.Cons[a] })
	rng.Shuffle(len(out.Objs), func(a, b int) { out.Objs[a], out.Objs[b] = out.Objs[b], out.Objs[a] })
	for _, c := range out.Cons {
		rng.Shuffle(len(c.Terms), func(a, b int) { c.Terms[a], c.Terms[b] = c.Terms[b], c.Terms[a] })
	}
	for _, o := range out.Objs {
		rng.Shuffle(len(o.Terms), func(a, b int) { o.Terms[a], o.Terms[b] = o.Terms[b], o.Terms[a] })
	}
	return out
}

// TestDirectEncodingMatchesSorted: a canonical instance written straight
// into the message encodes to exactly the bytes of the sorting path, for
// random instances under random row and term permutations — and so does a
// permuted instance, whichever row first breaks the order.
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
	for c, in := range cases {
		rng := rand.New(rand.NewSource(int64(c)))
		want := encodeSorted(in, o)
		for trial := 0; trial < 6; trial++ {
			p := shuffled(in, rng)
			if got := encodeSorted(p, o); !bytes.Equal(got, want) {
				t.Fatalf("case %d trial %d: the sorting path depends on row or term order", c, trial)
			}
			if got := EncodeSolve(p, o); !bytes.Equal(got, want) {
				t.Fatalf("case %d trial %d: permuted instance encodes differently from the sorting path", c, trial)
			}
			if got := EncodeSolve(p.Canonical(), o); !bytes.Equal(got, want) {
				t.Fatalf("case %d trial %d: direct encoding of the canonical form differs from the sorting path", c, trial)
			}
		}
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
