package canon

import (
	"slices"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/mmlp"
)

// edit returns base with the given rows replaced, copy-on-write as
// delta.Apply builds an edit: fresh row headers for a section it writes,
// and every other row and section shared with base.
func edit(base *mmlp.Instance, cons, objs map[int][]mmlp.Term) *mmlp.Instance {
	out := &mmlp.Instance{NumAgents: base.NumAgents, Cons: base.Cons, Objs: base.Objs}
	if len(cons) > 0 {
		out.Cons = slices.Clone(base.Cons)
		for i, ts := range cons {
			out.Cons[i].Terms = ts
		}
	}
	if len(objs) > 0 {
		out.Objs = slices.Clone(base.Objs)
		for k, ts := range objs {
			out.Objs[k].Terms = ts
		}
	}
	return out
}

// scaled is a copy of terms with every coefficient multiplied by f.
func scaled(terms []mmlp.Term, f float64) []mmlp.Term {
	out := slices.Clone(terms)
	for j := range out {
		out[j].Coef *= f
	}
	return out
}

// TestEditKeyerMatchesHash: on a necklace whose message spans several
// chunks, the keyer keys the base itself, every single-row reweight —
// rows inside a chunk, rows straddling a boundary, the last row in the
// short final chunk — rows in two chunks, and a reweight that moves its
// row past its neighbour, each to exactly Hash of the edited instance. A
// reweight left in place where it breaks the order fails Check instead.
func TestEditKeyerMatchesHash(t *testing.T) {
	base := gen.TriNecklace(200).Canonical()
	o := mmlp.SolveOptions{R: 4, DisableSpecialCases: true}
	k := NewEditKeyer(base, o)
	if k == nil {
		t.Fatal("no keyer for a canonical base")
	}
	if n := len(k.msg); n/chunkSize < 4 || n%chunkSize == 0 {
		t.Fatalf("the %d-byte message must span several chunks and end in a short one", n)
	}
	if !slices.Equal(k.msg, EncodeSolve(base, o)) {
		t.Fatal("the keyer's message is not the base's encoding")
	}
	check := func(name string, e *mmlp.Instance) {
		t.Helper()
		if !k.Check(e) {
			t.Fatalf("%s: Check rejected a width-preserving edit in canonical order", name)
		}
		if got, want := k.Key(e), Hash(e, o); got != want {
			t.Fatalf("%s: keyer %s, Hash %s", name, got, want)
		}
	}
	// reweight checks a one-row reweight left in place: Check accepts it
	// exactly when it is in canonical order.
	reweight := func(name string, e *mmlp.Instance) {
		t.Helper()
		if e.Canonical() != e {
			if k.Check(e) {
				t.Fatalf("%s: Check accepted a reweight out of canonical order", name)
			}
			return
		}
		check(name, e)
	}
	check("base", base)
	straddling := 0
	nc := len(base.Cons)
	for i, c := range base.Cons {
		reweight("constraint", edit(base, map[int][]mmlp.Term{i: scaled(c.Terms, 1.5)}, nil))
		if lo, hi := k.offs[i], k.offs[i]+rowHeaderBytes+bytesPerTerm*len(c.Terms); lo/chunkSize != (hi-1)/chunkSize {
			straddling++
		}
	}
	for j, ob := range base.Objs {
		reweight("objective", edit(base, nil, map[int][]mmlp.Term{j: scaled(ob.Terms, 0.75)}))
		if lo, hi := k.offs[nc+j], k.offs[nc+j]+rowHeaderBytes+bytesPerTerm*len(ob.Terms); lo/chunkSize != (hi-1)/chunkSize {
			straddling++
		}
	}
	if straddling == 0 {
		t.Fatal("no row straddles a chunk boundary")
	}
	last := len(base.Objs) - 1
	check("two-chunks", edit(base,
		map[int][]mmlp.Term{0: scaled(base.Cons[0].Terms, 2), 10: scaled(base.Cons[10].Terms, 3)},
		map[int][]mmlp.Term{last: scaled(base.Objs[last].Terms, 0.5)}))

	// A reweight that doubles a constraint sharing its first term with the
	// next one moves it past that row: both indices hold a row they do not
	// share with the base.
	move := -1
	for i := 0; i+1 < nc && move < 0; i++ {
		if base.Cons[i].Terms[0] == base.Cons[i+1].Terms[0] {
			move = i
		}
	}
	if move < 0 {
		t.Fatal("no constraint shares its first term with the next")
	}
	check("moving", edit(base, map[int][]mmlp.Term{
		move:     base.Cons[move+1].Terms,
		move + 1: scaled(base.Cons[move].Terms, 2),
	}, nil))
}

// TestEditKeyerRejects: an edit the keyer cannot patch, or one out of
// canonical order, fails Check, so the caller canonicalizes and hashes it
// in full. Every edit here keeps each row's width except where it says
// otherwise, so only the neighbour order check can reject the first two.
func TestEditKeyerRejects(t *testing.T) {
	base := gen.TriNecklace(50).Canonical()
	o := mmlp.SolveOptions{}
	k := NewEditKeyer(base, o)
	nc := len(base.Cons)
	unsorted := slices.Clone(base.Cons[3].Terms)
	unsorted[0], unsorted[1] = unsorted[1], unsorted[0]
	cases := map[string]*mmlp.Instance{
		// Row 3 takes row 5's terms, so it is larger than row 4 after it.
		"row-after-its-successor": edit(base, map[int][]mmlp.Term{3: slices.Clone(base.Cons[5].Terms)}, nil),
		// Row 5 takes row 3's terms, so it is smaller than row 4 before it.
		"row-before-its-predecessor": edit(base, map[int][]mmlp.Term{5: slices.Clone(base.Cons[3].Terms)}, nil),
		"unsorted-terms":             edit(base, map[int][]mmlp.Term{3: unsorted}, nil),
		"wider-row":                  edit(base, map[int][]mmlp.Term{nc - 1: append(slices.Clone(base.Cons[nc-1].Terms), mmlp.Term{Agent: 149, Coef: 1})}, nil),
		"row-added":                  {NumAgents: base.NumAgents, Cons: append(slices.Clone(base.Cons), mmlp.Constraint{Terms: base.Cons[0].Terms}), Objs: base.Objs},
		"row-removed":                {NumAgents: base.NumAgents, Cons: base.Cons[1:], Objs: base.Objs},
		"agents":                     {NumAgents: base.NumAgents + 1, Cons: base.Cons, Objs: base.Objs},
	}
	for name, e := range cases {
		if k.Check(e) {
			t.Errorf("%s: Check accepted it", name)
		}
		if name == "row-after-its-successor" && e.Canonical() == e {
			t.Fatalf("%s: the edit is in canonical order", name)
		}
	}
	if NewEditKeyer(edit(base, map[int][]mmlp.Term{0: unsorted}, nil), o) != nil {
		t.Fatal("a keyer was built for a base out of canonical order")
	}
	var none *EditKeyer
	if none.Check(base) || none.Bytes() != 0 {
		t.Fatal("a nil keyer accepted an edit or claimed memory")
	}
}

// TestHashBytesChunks: prefixes of a message ending around chunk
// boundaries — one chunk, one byte more or less, a whole number of chunks
// — all get different keys, and so does a message with one byte flipped
// at either side of a boundary.
func TestHashBytesChunks(t *testing.T) {
	msg := EncodeSolve(gen.TriNecklace(100), mmlp.SolveOptions{})
	seen := map[Key]int{}
	for _, n := range []int{0, 1, chunkSize - 1, chunkSize, chunkSize + 1, 2 * chunkSize, len(msg)} {
		k := HashBytes(msg[:n])
		if prev, dup := seen[k]; dup {
			t.Fatalf("prefixes of %d and %d bytes share a key", prev, n)
		}
		seen[k] = n
	}
	key := HashBytes(msg)
	for _, at := range []int{0, chunkSize - 1, chunkSize, len(msg) - 1} {
		m := slices.Clone(msg)
		m[at] ^= 1
		if HashBytes(m) == key {
			t.Fatalf("flipping byte %d kept the key", at)
		}
	}
}

// BenchmarkCanonKey times the key, warm, on the instance of a
// necklace-cold request (the 3,000-agent necklace at R = 4, its message
// ~30 chunks) and of an E1 request (24 agents at R = 3, one chunk): Hash
// from the instance, HashBytes from its encoded body, and an EditKeyer's
// Check and Key on a one-row reweight. Each is reported per iteration as
// its own metric and ns/op is their sum; allocs/op and B/op cover all
// six, and CI holds both at zero.
func BenchmarkCanonKey(b *testing.B) {
	cases := []struct {
		name string
		in   *mmlp.Instance
		o    mmlp.SolveOptions
	}{
		{"necklace", gen.TriNecklace(1000), mmlp.SolveOptions{R: 4, DisableSpecialCases: true}},
		{"e1", gen.Random(gen.RandomConfig{Agents: 24, MaxDegI: 3, MaxDegK: 3, ExtraCons: 6, ExtraObjs: 3}, 1), mmlp.SolveOptions{R: 3, DisableSpecialCases: true}},
	}
	type op struct {
		name string
		run  func() Key
		ns   time.Duration
	}
	var ops []*op
	for _, c := range cases {
		base := c.in.Canonical()
		payload := EncodeSolve(base, c.o)
		k := NewEditKeyer(base, c.o)
		edited := edit(base, map[int][]mmlp.Term{1: scaled(base.Cons[1].Terms, 0.75)}, nil)
		if !k.Check(edited) || k.Key(edited) != Hash(edited, c.o) {
			b.Fatalf("%s: the keyer does not key its edit", c.name)
		}
		ops = append(ops,
			&op{name: c.name + "-hash", run: func() Key { return Hash(base, c.o) }},
			&op{name: c.name + "-hash-bytes", run: func() Key { return HashBytes(payload) }},
			&op{name: c.name + "-edit", run: func() Key {
				if !k.Check(edited) {
					b.Fatal("Check rejected the edit")
				}
				return k.Key(edited)
			}})
	}
	for _, o := range ops {
		o.run() // warm the hasher pool
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink Key
	for i := 0; i < b.N; i++ {
		for _, o := range ops {
			t := time.Now()
			sink = o.run()
			o.ns += time.Since(t)
		}
	}
	b.StopTimer()
	_ = sink
	for _, o := range ops {
		b.ReportMetric(float64(o.ns.Nanoseconds())/float64(b.N), o.name+"-ns")
	}
}
