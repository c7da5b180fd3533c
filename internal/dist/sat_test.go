package dist

import (
	"math"
	"testing"

	"repro/internal/bipartite"
)

// TestSatAdd: byte sums add exactly below math.MaxInt and stick there
// above it, so no sum of tree sizes wraps negative.
func TestSatAdd(t *testing.T) {
	for _, c := range []struct{ a, b, want int }{
		{0, 0, 0},
		{3, 4, 7},
		{math.MaxInt - 1, 1, math.MaxInt},
		{math.MaxInt - 1, 2, math.MaxInt},
		{math.MaxInt, math.MaxInt, math.MaxInt},
		{1 << 62, 1 << 62, math.MaxInt},
	} {
		if got := satAdd(c.a, c.b); got != c.want {
			t.Fatalf("satAdd(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestViewTreeBytesSaturate: a view tree whose plain encoding doubles per
// level reports math.MaxInt once it outgrows an int, never a wrapped
// negative size.
func TestViewTreeBytesSaturate(t *testing.T) {
	vs := newViewStore()
	id := vs.intern(bipartite.KindAgent, 1, 0, [2]float64{}, nil)
	for level := 0; level < 70; level++ {
		prev := vs.treeBytes(id)
		id = vs.intern(bipartite.KindAgent, 3, 0, [2]float64{}, []int32{id, id})
		if got := vs.treeBytes(id); got < prev {
			t.Fatalf("level %d: tree bytes fell from %d to %d", level, prev, got)
		}
	}
	if got := vs.treeBytes(id); got != math.MaxInt {
		t.Fatalf("tree bytes after 70 doublings = %d, want math.MaxInt", got)
	}
}
