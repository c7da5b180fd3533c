package mmlp_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/mmlp"
)

// sameDecode reports whether two decoded requests are deeply equal with
// every coefficient equal in its bits: reflect.DeepEqual tells nil slices
// from empty ones, but calls −0 and +0 equal.
func sameDecode(a, b *mmlp.SolveRequest) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	if a.Instance == nil {
		return true
	}
	sameBits := func(x, y []mmlp.Term) bool {
		for j := range x {
			if math.Float64bits(x[j].Coef) != math.Float64bits(y[j].Coef) {
				return false
			}
		}
		return true
	}
	for i, c := range a.Instance.Cons {
		if !sameBits(c.Terms, b.Instance.Cons[i].Terms) {
			return false
		}
	}
	for k, o := range a.Instance.Objs {
		if !sameBits(o.Terms, b.Instance.Objs[k].Terms) {
			return false
		}
	}
	return true
}

// FuzzSolveRequestJSON: on any bytes, UnmarshalSolveRequest returns the
// value and error json.Unmarshal returns on a zero SolveRequest, floats
// compared by their bits and nil slices told from empty ones. An accepted
// fast decode shows as a nil error, so json.Unmarshal must then succeed.
func FuzzSolveRequestJSON(f *testing.F) {
	f.Add([]byte(`{"instance":{"num_agents":2,"constraints":[{"terms":[{"agent":0,"coef":1},{"agent":1,"coef":0.5}]}],"objectives":[{"terms":[{"agent":1,"coef":2}]}]},"r":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want mmlp.SolveRequest
		err := mmlp.UnmarshalSolveRequest(data, &got)
		wantErr := json.Unmarshal(data, &want)
		if !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("error %v, encoding/json %v\nbody: %q", err, wantErr, data)
		}
		if !sameDecode(&got, &want) {
			t.Fatalf("value %+v, encoding/json %+v\nbody: %q", got.Instance, want.Instance, data)
		}
	})
}

// fastFamilies is one instance of every in-repo family, each with at least
// 16 rows, so a body that fell to the reflection path would allocate one
// slice per row past the fast path's budget.
func fastFamilies() map[string]*mmlp.Instance {
	layered, _, _ := gen.LayeredNecklace(16)
	return map[string]*mmlp.Instance{
		"random":     gen.Random(gen.RandomConfig{Agents: 24, MaxDegI: 3, MaxDegK: 3, ExtraCons: 3, ExtraObjs: 2}, 1),
		"random-0/1": gen.Random(gen.RandomConfig{Agents: 24, MaxDegI: 3, MaxDegK: 3, ExtraCons: 3, ExtraObjs: 2, ZeroOne: true}, 2),
		"structured": gen.RandomStructured(gen.StructuredConfig{Objectives: 16, MaxDegK: 3, ExtraCons: 3}, 3),
		"tree":       gen.LayeredTree(4),
		"layered":    layered,
		"necklace":   gen.TriNecklace(16),
		"sensor":     gen.SensorGrid(gen.SensorGridConfig{Width: 16, Height: 3, Sensors: 20, Fan: 2}, 4),
		"bandwidth":  gen.Bandwidth(gen.BandwidthConfig{Links: 20, Customers: 8, PathsPerCustomer: 2, MaxPathLen: 3}, 5),
		"equations":  gen.Equations(gen.EquationsConfig{Vars: 16, Rows: 16, Density: 0.3}, 6),
	}
}

// spaced respells a json.Marshal body with Python's default separators,
// ", " and ": ", which sends every row and term to the general grammar.
// The bodies it is given hold no string with a comma or a colon.
func spaced(body []byte) []byte {
	return bytes.ReplaceAll(bytes.ReplaceAll(body, []byte(","), []byte(", ")), []byte(":"), []byte(": "))
}

// TestUnmarshalSolveRequestFastPath: json.Marshal's spelling of every
// family at R 2–5, and the same body respelled with Python's separators,
// decodes to encoding/json's value in at most 8 allocations, which only
// the schema scanner can do: the compact branch and the general grammar
// it rewinds to.
func TestUnmarshalSolveRequestFastPath(t *testing.T) {
	const maxAllocs = 8
	for name, in := range fastFamilies() {
		if rows := len(in.Cons) + len(in.Objs); rows < 16 {
			t.Fatalf("%s: %d rows, want at least 16", name, rows)
		}
		for r := 2; r <= 5; r++ {
			compact, err := json.Marshal(mmlp.SolveRequest{Instance: in, R: r})
			if err != nil {
				t.Fatal(err)
			}
			for _, body := range [][]byte{compact, spaced(compact)} {
				var got, want mmlp.SolveRequest
				if err := json.Unmarshal(body, &want); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(20, func() {
					if err := mmlp.UnmarshalSolveRequest(body, &got); err != nil {
						t.Fatalf("%s R=%d: %v", name, r, err)
					}
				})
				if !sameDecode(&got, &want) {
					t.Fatalf("%s R=%d: the decode of %.40q… differs from encoding/json's", name, r, body)
				}
				if allocs > maxAllocs {
					t.Fatalf("%s R=%d: %.0f allocations for %.40q…, want at most %d: the body left the schema scanner",
						name, r, allocs, body, maxAllocs)
				}
			}
		}
	}
}

// BenchmarkSolveRequestJSON decodes the body of one necklace-cold request,
// a one-row reweight of the 3,000-agent necklace at R = 4, with the
// schema decoder and with encoding/json, and the same body respelled with
// Python's separators (spaced), which the schema decoder reads in its
// general grammar.
func BenchmarkSolveRequestJSON(b *testing.B) {
	in := gen.TriNecklace(1000)
	for j := range in.Cons[7].Terms {
		in.Cons[7].Terms[j].Coef *= 0.75
	}
	body, err := json.Marshal(mmlp.SolveRequest{Instance: in, R: 4, DisableSpecialCases: true})
	if err != nil {
		b.Fatal(err)
	}
	decoders := []struct {
		name   string
		body   []byte
		decode func([]byte, *mmlp.SolveRequest) error
	}{
		{"schema", body, mmlp.UnmarshalSolveRequest},
		{"schema-spaced", spaced(body), mmlp.UnmarshalSolveRequest},
		{"encoding-json", body, func(data []byte, req *mmlp.SolveRequest) error { return json.Unmarshal(data, req) }},
	}
	for _, dec := range decoders {
		body := dec.body
		b.Run(dec.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			var req mmlp.SolveRequest
			for b.Loop() {
				req = mmlp.SolveRequest{}
				if err := dec.decode(body, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
