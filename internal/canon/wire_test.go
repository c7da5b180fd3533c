package canon_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/mmlp"
)

// optionVariants covers every field of the options header.
func optionVariants() []mmlp.SolveOptions {
	return []mmlp.SolveOptions{
		{},
		{Engine: 1},
		{Engine: 2, R: 4},
		{R: 2, BinIters: 37},
		{DisableSpecialCases: true},
		{SelfCheck: true, BinIters: 7},
	}
}

// TestWireRoundTrip: encode → decode → encode is the identity on bytes,
// the decoded instance is exactly the pipeline's canonical form, decoded
// options are the normalized originals, and hashing the payload equals
// hashing the pair — the equation the router's decode-free routing and the
// cross-encoding cache residency both rest on.
func TestWireRoundTrip(t *testing.T) {
	var sc canon.DecodeScratch
	for seed := int64(1); seed <= 20; seed++ {
		in := randomInstance(seed)
		rng := rand.New(rand.NewSource(seed * 17))
		for _, o := range optionVariants() {
			payload := canon.EncodeSolve(permute(in, rng), o)
			dec, gotOpts, err := canon.DecodeSolve(payload, &sc)
			if err != nil {
				t.Fatalf("seed %d opts %+v: decode: %v", seed, o, err)
			}
			want := in.Canonical()
			if dec.NumAgents != want.NumAgents ||
				!reflect.DeepEqual(dec.Cons, want.Cons) ||
				!reflect.DeepEqual(dec.Objs, want.Objs) {
				t.Fatalf("seed %d: decoded instance differs from Canonical()", seed)
			}
			wantOpts := o
			if wantOpts.R == 0 {
				wantOpts.R = 3
			}
			if wantOpts.BinIters == 0 {
				wantOpts.BinIters = 100
			}
			if gotOpts != wantOpts {
				t.Fatalf("seed %d: options %+v != normalized %+v", seed, gotOpts, wantOpts)
			}
			if re := canon.EncodeSolve(dec, gotOpts); !bytes.Equal(re, payload) {
				t.Fatalf("seed %d: re-encode is not bit-identical", seed)
			}
			if canon.HashBytes(payload) != canon.Hash(in, o) {
				t.Fatalf("seed %d: HashBytes(payload) != Hash(instance, options)", seed)
			}
		}
	}
}

// wireHelpers for handcrafting payloads in the layout and hostility tests.
func uv(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func term(agent int64, coef float64) []byte {
	var b []byte
	b = binary.BigEndian.AppendUint64(b, uint64(agent)^(1<<63))
	return binary.BigEndian.AppendUint64(b, math.Float64bits(coef))
}

func row(terms ...[]byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(terms)))
	return append(b, bytes.Join(terms, nil)...)
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestWireLayout pins the byte layout by building a small payload by hand
// and checking the encoder emits exactly those bytes. If the format
// changes, this test — not just a hash somewhere — says where.
func TestWireLayout(t *testing.T) {
	in := mmlp.New(2)
	in.AddConstraint(1, 2.0, 0, 1.0) // terms arrive unsorted on purpose
	in.AddObjective(0, 1.5)
	want := cat(
		[]byte(canon.SolveMagic),
		uv(0, 3, 100),                          // engine, normalized R, normalized BinIters
		[]byte{0},                              // flags
		uv(2),                                  // num_agents
		uv(1), row(term(0, 1.0), term(1, 2.0)), // constraints, term-sorted
		uv(1), row(term(0, 1.5)), // objectives
	)
	if got := canon.EncodeSolve(in, mmlp.SolveOptions{}); !bytes.Equal(got, want) {
		t.Fatalf("encoded layout drifted:\n got %x\nwant %x", got, want)
	}
}

// TestWireRowOrderMatchesCanonical: the encoded byte order of rows must
// coincide with mmlp.Canonical's row order even for agent indices whose
// varint encodings would sort differently — the bug class the fixed-width
// v2 row format exists to rule out.
func TestWireRowOrderMatchesCanonical(t *testing.T) {
	in := mmlp.New(300)
	// Agents 70 and 299 straddle varint length boundaries; rows are
	// deliberately inserted in non-canonical order.
	in.AddConstraint(299, 1.0)
	in.AddConstraint(70, 1.0)
	in.AddConstraint(3, 1.0)
	in.AddObjective(299, 2.0, 70, 1.0)
	in.AddObjective(3, 1.0, 5, 1.0)
	payload := canon.EncodeSolve(in, mmlp.SolveOptions{})
	dec, _, err := canon.DecodeSolve(payload, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := in.Canonical()
	if !reflect.DeepEqual(dec.Cons, want.Cons) || !reflect.DeepEqual(dec.Objs, want.Objs) {
		t.Fatalf("decoded row order differs from Canonical():\n got %+v\nwant %+v", dec, want)
	}
}

// validPayload is the handcrafted base the hostility cases mutate.
func validPayload() []byte {
	return cat(
		[]byte(canon.SolveMagic),
		uv(0, 3, 100), []byte{0},
		uv(2),
		uv(1), row(term(0, 1.0), term(1, 2.0)),
		uv(1), row(term(0, 1.5)),
	)
}

// TestDecodeHostility: every malformed-input class returns its typed
// error — and nothing panics.
func TestDecodeHostility(t *testing.T) {
	opts := func(engine, r, iters uint64, flags byte) []byte {
		return cat([]byte(canon.SolveMagic), uv(engine, r, iters), []byte{flags})
	}
	body := func(parts ...[]byte) []byte { // instance section after a valid header
		return cat(opts(0, 3, 100, 0), cat(parts...))
	}
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"empty", nil, canon.ErrMagic},
		{"short-magic", []byte("mmlp-ca"), canon.ErrMagic},
		{"old-version", []byte("mmlp-canon/v1\n\x00\x03\x64\x00\x02\x00\x00"), canon.ErrMagic},
		{"magic-only", []byte(canon.SolveMagic), canon.ErrTruncated},
		{"engine-too-big", opts(3, 3, 100, 0), canon.ErrRange},
		{"r-zero-unnormalized", opts(0, 0, 100, 0), canon.ErrRange},
		{"r-one", opts(0, 1, 100, 0), canon.ErrRange},
		{"r-above-cap", opts(0, mmlp.MaxWireR+1, 100, 0), canon.ErrRange},
		{"bin-iters-zero", opts(0, 3, 0, 0), canon.ErrRange},
		{"bin-iters-above-cap", opts(0, 3, mmlp.MaxWireBinIters+1, 0), canon.ErrRange},
		{"reserved-flags", opts(0, 3, 100, 0x80), canon.ErrRange},
		{"missing-agents", opts(0, 3, 100, 0), canon.ErrTruncated},
		{"agents-above-cap", body(uv(mmlp.MaxWireAgents + 1)), canon.ErrRange},
		{"non-minimal-varint", body([]byte{0x82, 0x00}), canon.ErrNotCanonical},
		{"varint-overflow", body([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}), canon.ErrOverflow},
		{"row-count-overflow", body(uv(2), uv(1000)), canon.ErrOverflow},
		{"term-count-overflow", body(uv(2), uv(1), []byte{0xff, 0xff, 0xff, 0xff}), canon.ErrOverflow},
		{"row-truncated", body(uv(2), uv(1), row(term(0, 1.0))[:10]), canon.ErrOverflow},
		{"missing-objs-section", body(uv(2), uv(1), row(term(0, 1.0))), canon.ErrTruncated},
		{"agent-negative", body(uv(2), uv(1), row(term(-1, 1.0)), uv(0)), canon.ErrRange},
		{"agent-beyond-count", body(uv(2), uv(1), row(term(2, 1.0)), uv(0)), canon.ErrRange},
		{"terms-out-of-order", body(uv(2), uv(1), row(term(1, 1.0), term(0, 1.0)), uv(0)), canon.ErrNotCanonical},
		{"dup-term-coef-order", body(uv(2), uv(1), row(term(0, 2.0), term(0, 1.0)), uv(0)), canon.ErrNotCanonical},
		{"rows-out-of-order", body(uv(2), uv(2), row(term(1, 1.0)), row(term(0, 1.0)), uv(0)), canon.ErrNotCanonical},
		{"rows-length-order", body(uv(2), uv(2), row(term(0, 1.0), term(1, 1.0)), row(term(0, 1.0)), uv(0)), canon.ErrNotCanonical},
		{"trailing-byte", append(validPayload(), 0x00), canon.ErrTrailing},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := canon.DecodeSolve(tc.payload, nil)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
	if _, _, err := canon.DecodeSolve(validPayload(), nil); err != nil {
		t.Fatalf("base payload must decode cleanly, got %v", err)
	}
}

// TestDecodeOptionsPastMaxInt: a header value of 2⁶³ or more, which the
// decoder converts to a negative int, is out of range in every field.
func TestDecodeOptionsPastMaxInt(t *testing.T) {
	inst := validPayload()[len(canon.SolveMagic)+4:] // after three one-byte varints and the flags
	for _, hdr := range [][]byte{uv(1<<63, 3, 100), uv(0, math.MaxUint64, 100), uv(0, 3, 1<<63+100)} {
		payload := cat([]byte(canon.SolveMagic), hdr, []byte{0}, inst)
		if _, _, err := canon.DecodeSolve(payload, nil); !errors.Is(err, canon.ErrRange) {
			t.Fatalf("header %x: got %v, want %v", hdr, err, canon.ErrRange)
		}
	}
}

// TestDecodeEveryPrefixFails: no truncation point of a valid payload
// decodes successfully or panics.
func TestDecodeEveryPrefixFails(t *testing.T) {
	payload := canon.EncodeSolve(randomInstance(9), mmlp.SolveOptions{Engine: 1})
	for n := 0; n < len(payload); n++ {
		if _, _, err := canon.DecodeSolve(payload[:n], nil); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(payload))
		}
	}
}

// TestDecodeScratchReuse: warm decodes into a reused scratch allocate
// nothing — the property SolveCanonBytes' warm path depends on.
func TestDecodeScratchReuse(t *testing.T) {
	payload := canon.EncodeSolve(randomInstance(11), mmlp.SolveOptions{})
	var sc canon.DecodeScratch
	if _, _, err := canon.DecodeSolve(payload, &sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := canon.DecodeSolve(payload, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm decode allocates %.1f times per run, want 0", allocs)
	}
}

// TestBatchFrame: split inverts append, payloads alias the frame (no
// copying on the router), and framing damage returns typed errors.
func TestBatchFrame(t *testing.T) {
	var payloads [][]byte
	for seed := int64(1); seed <= 4; seed++ {
		payloads = append(payloads, canon.EncodeSolve(randomInstance(seed), mmlp.SolveOptions{Engine: mmlp.Engine(seed % 3)}))
	}
	frame := canon.AppendBatch(nil, payloads)
	got, err := canon.SplitBatch(frame)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("split %d payloads, want %d", len(got), len(payloads))
	}
	for i := range got {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("payload %d differs after framing", i)
		}
		if &got[i][0] != &frame[cap(frame)-cap(got[i])] {
			// Aliasing check: the subslice must point into the frame.
			t.Fatalf("payload %d was copied out of the frame", i)
		}
	}

	short := canon.EncodeSolve(randomInstance(1), mmlp.SolveOptions{})
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, canon.ErrMagic},
		{"solve-not-batch", short, canon.ErrMagic},
		{"count-overflow", cat([]byte(canon.BatchMagic), uv(1000)), canon.ErrOverflow},
		{"length-overflow", cat([]byte(canon.BatchMagic), uv(1, 1<<40), short), canon.ErrOverflow},
		{"payload-truncated", canon.AppendBatch(nil, [][]byte{short})[:len(canon.BatchMagic)+2+len(short)/2], canon.ErrOverflow},
		{"inner-magic", cat([]byte(canon.BatchMagic), uv(1, uint64(len(short))), bytes.Repeat([]byte{0}, len(short))), canon.ErrMagic},
		{"trailing", append(canon.AppendBatch(nil, [][]byte{short}), 0xff), canon.ErrTrailing},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := canon.SplitBatch(tc.frame); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestResultFrame: records round-trip every field bit-exactly, including
// the float payloads, in completion (non-index) order.
func TestResultFrame(t *testing.T) {
	items := []mmlp.BatchItem{
		{Index: 2, SolveResponse: mmlp.SolveResponse{
			Status: "approximate", X: []float64{0.1, 0.25, math.Nextafter(1, 2)},
			Utility: 1.0 / 3.0, UpperBound: 0.5000000000000001, LatencyMS: 0.125, Cached: true,
		}},
		{Index: 0, Error: "engine exploded"},
		{Index: 1, SolveResponse: mmlp.SolveResponse{
			Status: "optimal", X: []float64{}, Utility: 2, UpperBound: 2,
			Rounds: 7, Messages: 123, Bytes: 4096,
		}},
		{Index: 3, SolveResponse: mmlp.SolveResponse{Status: "unbounded", Utility: math.Inf(1)}},
	}
	frame := canon.AppendResultsHeader(nil)
	for i := range items {
		frame = canon.AppendResult(frame, &items[i])
	}
	got, err := canon.DecodeResults(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, items) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, items)
	}

	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, canon.ErrMagic},
		{"record-cut", frame[:len(frame)-3], canon.ErrTruncated},
		{"reserved-flags", cat([]byte(canon.ResultsMagic), []byte{0x40}, uv(0)), canon.ErrRange},
		{"error-plus-flags", cat([]byte(canon.ResultsMagic), []byte{0x03}, uv(0)), canon.ErrRange},
		{"string-overflow", cat([]byte(canon.ResultsMagic), []byte{0x01}, uv(0, 1<<20)), canon.ErrOverflow},
		{"x-overflow", cat([]byte(canon.ResultsMagic), []byte{0x08}, uv(0, 0), make([]byte, 24), uv(1<<30)), canon.ErrOverflow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := canon.DecodeResults(tc.frame); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestResultTrafficBlock: a record carries its traffic block only when a
// counter is non-zero, so an all-zero block is a second spelling and is
// rejected; every counter AppendResult writes for a non-negative int, up
// to math.MaxInt, round-trips, and one past it is out of range.
func TestResultTrafficBlock(t *testing.T) {
	items := []mmlp.BatchItem{
		{Index: 0, SolveResponse: mmlp.SolveResponse{Status: "approximate", Rounds: 428, Messages: 1 << 20, Bytes: 4e9}},
		{Index: 1, SolveResponse: mmlp.SolveResponse{Status: "approximate", Rounds: 1, Messages: math.MaxInt, Bytes: math.MaxInt}},
	}
	frame := canon.AppendResultsHeader(nil)
	for i := range items {
		frame = canon.AppendResult(frame, &items[i])
	}
	got, err := canon.DecodeResults(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, items) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, items)
	}

	record := func(counters ...uint64) []byte {
		return cat([]byte(canon.ResultsMagic), []byte{0x04}, uv(0, 0), make([]byte, 24), uv(counters...))
	}
	zeros := "mmlp-canon-results/v1\n\n0\x00" + strings.Repeat("0", 24) + "\x00\x040\x00" + strings.Repeat("0", 24) + "\x00\x00\x00"
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"zero-traffic", record(0, 0, 0), canon.ErrNotCanonical},
		{"zero-traffic-second-record", []byte(zeros), canon.ErrNotCanonical},
		{"counter-past-maxint", record(1, 1, math.MaxInt+1), canon.ErrRange},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := canon.DecodeResults(tc.frame); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestSniff: the router's classification helpers read only the prefix.
func TestSniff(t *testing.T) {
	if !canon.SniffSolve(canon.EncodeSolve(randomInstance(1), mmlp.SolveOptions{})) {
		t.Fatal("SniffSolve rejects an encoded solve")
	}
	if canon.SniffSolve([]byte(canon.BatchMagic)) || canon.SniffSolve(nil) {
		t.Fatal("SniffSolve accepts non-solve bytes")
	}
	if !canon.SniffBatch(canon.AppendBatch(nil, nil)) {
		t.Fatal("SniffBatch rejects an empty batch frame")
	}
	if canon.SniffBatch([]byte(canon.SolveMagic)) {
		t.Fatal("SniffBatch accepts a solve payload")
	}
	if canon.SniffSolve([]byte(strings.TrimSuffix(canon.SolveMagic, "\n"))) {
		t.Fatal("SniffSolve accepts a truncated magic")
	}
}
