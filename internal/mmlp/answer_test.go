package mmlp_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mmlp"
)

// FuzzEncodeAnswer: for fuzzed answers of the three shapes, floats from
// fuzzed bit patterns, the schema encoder's bytes equal
// json.NewEncoder(&buf).Encode(v)'s whenever it accepts, and it declines
// whenever encoding/json fails; AppendAnswer returns encoding/json's bytes
// and error either way. The answer's x is xs with the entries edits names
// rewritten, and splicing it from xs's memo changes no byte.
//
// edits is a list of 10-byte records: a little-endian uint16 position
// (taken modulo len(xs)) and the new entry's uint64 bits. flags: 1 turns
// an empty x into a non-nil one, 2 adds a trace, 4 sets cached, 8 sets
// spliced.
func FuzzEncodeAnswer(f *testing.F) {
	f.Add(uint8(0), "approximate", "kernel", []byte{}, []byte{}, uint64(0), uint64(0), uint64(0), 0, 0, 0, uint8(0))
	f.Fuzz(func(t *testing.T, shape uint8, status, text string, xs, edits []byte, utility, upper, latency uint64, a, b, c int, flags uint8) {
		var base []float64
		for ; len(xs) >= 8; xs = xs[8:] {
			base = append(base, math.Float64frombits(binary.LittleEndian.Uint64(xs)))
		}
		x := slices.Clone(base)
		for ; len(edits) >= 10 && len(x) > 0; edits = edits[10:] {
			x[int(binary.LittleEndian.Uint16(edits))%len(x)] = math.Float64frombits(binary.LittleEndian.Uint64(edits[2:]))
		}
		if flags&1 != 0 && x == nil {
			x = []float64{}
		}
		var trace map[string]float64
		if flags&2 != 0 {
			trace = map[string]float64{"kernel": math.Float64frombits(utility ^ latency), "hash": math.Float64frombits(upper), text: math.Float64frombits(latency)}
		}
		sr := mmlp.SolveResponse{
			Status: status, X: x,
			Utility: math.Float64frombits(utility), UpperBound: math.Float64frombits(upper),
			Rounds: a, Messages: b, Bytes: c,
			LatencyMS: math.Float64frombits(latency), Cached: flags&4 != 0, Trace: trace,
		}
		memo := mmlp.EncodeX(base)
		switch shape % 3 {
		case 0:
			checkAnswer(t, &sr, memo)
		case 1:
			checkAnswer(t, &mmlp.DeltaResponse{
				Status: status, X: x, Utility: sr.Utility, UpperBound: sr.UpperBound,
				Key: text, DirtyAgents: a, TotalAgents: b, Spliced: flags&8 != 0, Cached: sr.Cached,
				LatencyMS: sr.LatencyMS, Trace: trace,
			}, memo)
		default:
			checkAnswer(t, &mmlp.BatchItem{Index: c, Error: text, SolveResponse: sr}, memo)
		}
	})
}

// checkAnswer asserts FuzzEncodeAnswer's properties for one answer.
func checkAnswer[T mmlp.Answer](t *testing.T, v *T, memo *mmlp.EncodedX) {
	t.Helper()
	var buf bytes.Buffer
	wantErr := json.NewEncoder(&buf).Encode(v)
	want := buf.Bytes()
	const prefix = "prefix"
	got, ok := mmlp.AppendAnswerFast([]byte(prefix), v, nil)
	if ok && (wantErr != nil || !bytes.Equal(got[len(prefix):], want)) {
		t.Fatalf("schema encoder accepted %+v:\n got %q\nwant %q (error %v)", v, got[len(prefix):], want, wantErr)
	}
	spliced, sok := mmlp.AppendAnswerFast(nil, v, memo)
	if sok != ok || ok && !bytes.Equal(spliced, want) {
		t.Fatalf("splicing from the memo: ok %v, want %v\n got %q\nwant %q", sok, ok, spliced, want)
	}
	out, err := mmlp.AppendAnswer(nil, v, memo)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() || !bytes.Equal(out, want) {
		t.Fatalf("AppendAnswer = %q, %v; encoding/json %q, %v", out, err, want, wantErr)
	}
}

// TestAppendAnswerFastPath: the engine's answer on every in-repo family at
// R 2–5, rendered as each of the three shapes with and without a trace,
// takes the schema encoder and gets encoding/json's bytes. At R=2 a
// message-passing run adds the traffic fields. A family whose answers
// silently declined to encoding/json fails here.
func TestAppendAnswerFastPath(t *testing.T) {
	for name, in := range fastFamilies() {
		for r := 2; r <= 5; r++ {
			engines := []mmlp.Engine{mmlp.EngineCentral}
			if r == 2 {
				engines = append(engines, mmlp.EngineDistributedCompact)
			}
			for _, eng := range engines {
				sc := engine.NewScratch()
				o := engine.Options{Engine: eng, R: r}
				sol, info, err := engine.SolveScratch(context.Background(), in, o, sc)
				if err != nil {
					t.Fatalf("%s R=%d %v: %v", name, r, eng, err)
				}
				res := batch.Result{
					Index: 7,
					Reply: engine.Reply{Sol: sol, Dist: info, Delta: &engine.DeltaOutcome{
						Key: engine.SolveKey(in, o), DirtyAgents: len(sol.X) / 2, TotalAgents: len(sol.X), Spliced: true,
					}},
					Latency: 1234567 * time.Nanosecond,
				}
				for _, trace := range []map[string]float64{nil, sc.Trace.MSMap()} {
					sr := batch.ResponseFromResult(res)
					sr.Trace = trace
					dr := batch.DeltaResponseFromResult(res)
					dr.Trace = trace
					item := batch.ItemFromResult(res)
					item.Trace = trace
					mustTakeFastPath(t, name, &sr)
					mustTakeFastPath(t, name, &dr)
					mustTakeFastPath(t, name, &item)
				}
			}
		}
	}
}

func mustTakeFastPath[T mmlp.Answer](t *testing.T, family string, v *T) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	got, ok := mmlp.AppendAnswerFast(nil, v, nil)
	if !ok {
		t.Fatalf("%s: the schema encoder declined %T %s", family, v, want.Bytes())
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s: %T\n got %q\nwant %q", family, v, got, want.Bytes())
	}
}

// BenchmarkAppendAnswer encodes the answer of one necklace-delta request,
// a one-row reweight of the 3,000-agent necklace at R = 4, with
// encoding/json, with the schema encoder, and with the schema encoder
// splicing from the base answer's memo.
func BenchmarkAppendAnswer(b *testing.B) {
	ctx := context.Background()
	in := gen.TriNecklace(1000)
	opts := engine.Options{R: 4, DisableSpecialCases: true}
	ca := engine.NewCache(engine.CacheOptions{MaxBytes: 1 << 30})
	base, _, _, err := engine.SolveCached(ctx, in, opts, nil, ca)
	if err != nil {
		b.Fatal(err)
	}
	row := in.Canonical().Cons[7].Terms
	scaled := make([]mmlp.Term, len(row))
	for j, tm := range row {
		scaled[j] = mmlp.Term{Agent: tm.Agent, Coef: 0.75 * tm.Coef}
	}
	edits := []mmlp.RowEdit{{Op: mmlp.EditReweight, Kind: mmlp.EditConstraint, Match: row, Terms: scaled}}
	sol, out, _, err := engine.SolveDelta(ctx, engine.SolveKey(in, opts), edits, nil, ca)
	if err != nil {
		b.Fatal(err)
	}
	resp := batch.DeltaResponseFromResult(batch.Result{Reply: engine.Reply{Sol: sol, Delta: out}, Latency: 412 * time.Microsecond})
	memo := mmlp.EncodeX(base.X)
	encoders := []struct {
		name   string
		encode func(buf []byte) ([]byte, error)
	}{
		{"encoding-json", func(buf []byte) ([]byte, error) {
			w := bytes.NewBuffer(buf)
			err := json.NewEncoder(w).Encode(&resp)
			return w.Bytes(), err
		}},
		{"schema", func(buf []byte) ([]byte, error) { return mmlp.AppendAnswer(buf, &resp, nil) }},
		{"spliced", func(buf []byte) ([]byte, error) { return mmlp.AppendAnswer(buf, &resp, memo) }},
	}
	for _, enc := range encoders {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for b.Loop() {
				if buf, err = enc.encode(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}
