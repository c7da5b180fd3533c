package canon_test

// Fuzz targets for every parser the wire format added. Each asserts the
// two safety properties the serving stack relies on: hostile bytes never
// panic, and any accepted input re-encodes bit-identically (one byte
// string per message — the injectivity the router's hash-and-forward
// routing rests on). Seed corpora live under testdata/fuzz/, so the plain
// `go test` run replays them deterministically; the CI fuzz job explores
// beyond them.

import (
	"bytes"
	"testing"

	"repro/internal/canon"
	"repro/internal/mmlp"
)

// FuzzDecodeSolve: DecodeSolve never panics, and whenever it accepts a
// payload, re-encoding the decoded pair reproduces the input exactly —
// so HashBytes(payload) is THE key of the decoded request.
func FuzzDecodeSolve(f *testing.F) {
	for _, seed := range solveSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		in, o, err := canon.DecodeSolve(payload, nil)
		if err != nil {
			return
		}
		re := canon.EncodeSolve(in, o)
		if !bytes.Equal(re, payload) {
			t.Fatalf("accepted payload is not canonical:\n in %x\nout %x", payload, re)
		}
		if canon.HashBytes(payload) != canon.Hash(in, o) {
			t.Fatal("HashBytes(payload) != Hash(decoded)")
		}
	})
}

// FuzzSplitBatch: SplitBatch never panics, and any accepted frame is
// exactly the frame its payloads re-assemble into.
func FuzzSplitBatch(f *testing.F) {
	for _, seed := range batchSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		payloads, err := canon.SplitBatch(frame)
		if err != nil {
			return
		}
		if re := canon.AppendBatch(nil, payloads); !bytes.Equal(re, frame) {
			t.Fatalf("accepted frame is not canonical:\n in %x\nout %x", frame, re)
		}
	})
}

// FuzzDecodeResults: DecodeResults never panics, and accepted frames
// re-encode bit-identically from the decoded items.
func FuzzDecodeResults(f *testing.F) {
	for _, seed := range resultSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		items, err := canon.DecodeResults(frame)
		if err != nil {
			return
		}
		re := canon.AppendResultsHeader(nil)
		for i := range items {
			re = canon.AppendResult(re, &items[i])
		}
		if !bytes.Equal(re, frame) {
			t.Fatalf("accepted frame is not canonical:\n in %x\nout %x", frame, re)
		}
	})
}

// solveSeeds returns well-formed and near-well-formed solve payloads as
// in-code seeds (the committed corpus under testdata/fuzz/ extends these).
func solveSeeds() [][]byte {
	var seeds [][]byte
	for s := int64(1); s <= 3; s++ {
		seeds = append(seeds, canon.EncodeSolve(randomInstance(s), mmlp.SolveOptions{Engine: mmlp.Engine(s % 3)}))
	}
	seeds = append(seeds,
		nil,
		[]byte(canon.SolveMagic),
		validPayload(),
		append(validPayload(), 0),
		validPayload()[:len(validPayload())-1],
	)
	return seeds
}

func batchSeeds() [][]byte {
	one := canon.EncodeSolve(randomInstance(1), mmlp.SolveOptions{})
	two := canon.EncodeSolve(randomInstance(2), mmlp.SolveOptions{Engine: 1})
	return [][]byte{
		nil,
		[]byte(canon.BatchMagic),
		canon.AppendBatch(nil, nil),
		canon.AppendBatch(nil, [][]byte{one}),
		canon.AppendBatch(nil, [][]byte{one, two}),
		canon.AppendBatch(nil, [][]byte{one, two})[:30],
	}
}

var resultSeedItems = []mmlp.BatchItem{
	{Index: 1, SolveResponse: mmlp.SolveResponse{
		Status: "approximate", X: []float64{0.5, 0.25}, Utility: 0.75, UpperBound: 1, LatencyMS: 0.2, Cached: true,
	}},
	{Index: 0, Error: "boom"},
	{Index: 2, SolveResponse: mmlp.SolveResponse{
		Status: "optimal", Utility: 2, UpperBound: 2, Rounds: 3, Messages: 9, Bytes: 128,
	}},
}

func resultSeeds() [][]byte {
	ok := canon.AppendResultsHeader(nil)
	for i := range resultSeedItems {
		ok = canon.AppendResult(ok, &resultSeedItems[i])
	}
	return [][]byte{
		nil,
		[]byte(canon.ResultsMagic),
		canon.AppendResultsHeader(nil),
		ok,
		ok[:len(ok)-2],
	}
}
