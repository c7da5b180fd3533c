package canon

// This file is the decode side of the canon wire format, plus the two
// frames that ride it: the length-prefixed batch frame and the streaming
// result frame. The encoding in canon.go was designed so that one byte
// string corresponds to one canonical (instance, options) pair; the
// decoders here enforce that injectivity on input — canonical varints
// only, normalized options only, canonical term and row order only, no
// trailing bytes — so for every accepted payload
//
//	payload == AppendSolve(nil, decodedInstance, decodedOptions)
//
// holds bit-for-bit. The key is a function of the message bytes alone —
// SHA-256 over a tag and the digests of the message's 4 KiB chunks
// (key.go), which HashBytes cuts from the raw payload without parsing it
// — so HashBytes(payload) equals the cache key the JSON path computes for
// the same request, and the key a delta patches from its base's chunk
// digests. That equation is what lets the shard router route canon
// traffic by hashing raw bytes and what makes cache entries land on the
// same shard regardless of the encoding a client chose.
//
// Every malformed-input class maps to one of the sentinel errors below;
// decoders never panic on hostile input (the fuzz targets in fuzz_test.go
// pin that down).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/mmlp"
)

// Wire decode errors. Each sentinel names one malformed-input class;
// returned errors wrap exactly one of them, so callers dispatch with
// errors.Is.
var (
	// ErrMagic: the payload does not start with the expected magic string
	// (wrong format, wrong version, or not canon at all).
	ErrMagic = errors.New("canon: bad magic")
	// ErrTruncated: the payload ends inside a field a length or count said
	// would be there.
	ErrTruncated = errors.New("canon: truncated payload")
	// ErrOverflow: a length or count field exceeds what the remaining bytes
	// could possibly hold (or a varint exceeds 64 bits) — the resource-
	// exhaustion class: such a payload can never be completed to a valid
	// one, so it is rejected before any allocation is sized from it.
	ErrOverflow = errors.New("canon: length overflow")
	// ErrRange: a well-formed field carries a value outside its domain
	// (unknown engine, R or num_agents beyond the wire caps, reserved flag
	// bits set, un-normalized zero options, agent outside the instance).
	ErrRange = errors.New("canon: value out of range")
	// ErrNotCanonical: the payload is structurally valid but is not the
	// canonical encoding of its content — non-minimal varints, unsorted
	// terms, or unsorted rows. Accepting such a payload would give one
	// instance two keys (its bytes hash differently from the canonical
	// spelling), so it is rejected outright.
	ErrNotCanonical = errors.New("canon: payload not in canonical form")
	// ErrTrailing: bytes remain after a complete message.
	ErrTrailing = errors.New("canon: trailing bytes")
)

// bytesPerTerm is the fixed wire width of one term: the sign-flipped
// agent pattern and the coefficient bits, 8 bytes each.
const bytesPerTerm = 16

// rowHeaderBytes is the fixed width of a row's term-count prefix.
const rowHeaderBytes = 4

// SniffSolve reports whether p begins with the canon solve magic. It
// reads nothing else: the router uses it to classify payloads without
// decoding them.
func SniffSolve(p []byte) bool {
	return len(p) >= len(SolveMagic) && string(p[:len(SolveMagic)]) == SolveMagic
}

// SniffBatch reports whether p begins with the canon batch-frame magic.
func SniffBatch(p []byte) bool {
	return len(p) >= len(BatchMagic) && string(p[:len(BatchMagic)]) == BatchMagic
}

// reader walks a payload, enforcing canonical varint encodings.
type reader struct {
	p   []byte
	off int
}

func (r *reader) remaining() int { return len(r.p) - r.off }

// uvarint reads one canonically-encoded unsigned varint. Non-minimal
// encodings (a shorter spelling of the same value exists) are rejected:
// they would give one message two byte representations and so two keys.
func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.p[r.off:])
	if n == 0 {
		return 0, fmt.Errorf("%w: varint at offset %d", ErrTruncated, r.off)
	}
	if n < 0 {
		return 0, fmt.Errorf("%w: varint at offset %d exceeds 64 bits", ErrOverflow, r.off)
	}
	if n > 1 && v < 1<<(7*(n-1)) {
		return 0, fmt.Errorf("%w: non-minimal varint at offset %d", ErrNotCanonical, r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("%w: byte at offset %d", ErrTruncated, r.off)
	}
	b := r.p[r.off]
	r.off++
	return b, nil
}

func (r *reader) take(n int) ([]byte, error) {
	if r.remaining() < n {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d, have %d",
			ErrTruncated, n, r.off, r.remaining())
	}
	b := r.p[r.off : r.off+n]
	r.off += n
	return b, nil
}

// decodeOptions decodes the solve magic and the options header from the
// front of payload, returning the remainder (the instance section). The
// options on the wire must already be normalized — the encoder writes
// them that way, and accepting R=0 alongside R=3 would alias two byte
// strings to one configuration — so mmlp.SolveOptions.CheckWire rejects
// a zero, and a value past MaxInt, which converts to a negative int.
func decodeOptions(payload []byte) (mmlp.SolveOptions, []byte, error) {
	if !SniffSolve(payload) {
		return mmlp.SolveOptions{}, nil, fmt.Errorf("%w: want %q", ErrMagic, SolveMagic)
	}
	r := &reader{p: payload, off: len(SolveMagic)}
	var vals [3]uint64 // engine, R, BinIters
	for i := range vals {
		var err error
		if vals[i], err = r.uvarint(); err != nil {
			return mmlp.SolveOptions{}, nil, err
		}
	}
	flags, err := r.byte()
	if err != nil {
		return mmlp.SolveOptions{}, nil, err
	}
	if flags&flagsReservedMask != 0 {
		return mmlp.SolveOptions{}, nil, fmt.Errorf("%w: reserved flag bits %#x set", ErrRange, flags&flagsReservedMask)
	}
	o := mmlp.SolveOptions{Engine: mmlp.Engine(vals[0]), R: int(vals[1]), BinIters: int(vals[2]),
		DisableSpecialCases: flags&flagDisableSpecialCases != 0, SelfCheck: flags&flagSelfCheck != 0}
	if err := o.CheckWire(); err != nil {
		return mmlp.SolveOptions{}, nil, fmt.Errorf("%w: %w", ErrRange, err)
	}
	return o, payload[r.off:], nil
}

// DecodeScratch is the arena DecodeSolve decodes into, so warm decoding
// of similarly-shaped payloads does not allocate.
type DecodeScratch = mmlp.Arena

// decodeInstance decodes the instance section from the front of p (the
// remainder returned by decodeOptions) into a, returning the instance and
// any bytes that follow it. A nil a falls back to fresh memory; with a
// non-nil a the instance aliases a and is valid only until a's next use —
// treat it as read-only either way.
//
// The decode is one pass. Every row and term count is bounded by the
// bytes present before it is trusted, so a hostile header cannot force a
// large allocation, and canonical order is enforced with mmlp.RowInOrder
// as the rows arrive. An accepted instance is therefore already in the
// exact canonical form mmlp.Canonical produces, and the solve pipeline can
// skip re-canonicalization entirely.
func decodeInstance(p []byte, a *DecodeScratch) (*mmlp.Instance, []byte, error) {
	if a == nil {
		a = &DecodeScratch{}
	}
	r := &reader{p: p}
	na, err := r.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if na > mmlp.MaxWireAgents {
		return nil, nil, fmt.Errorf("%w: num_agents %d exceeds the wire limit %d",
			ErrRange, na, mmlp.MaxWireAgents)
	}
	a.Reset(int(na))
	if err := decodeSection(r, a, int(na), false); err != nil {
		return nil, nil, err
	}
	if err := decodeSection(r, a, int(na), true); err != nil {
		return nil, nil, err
	}
	return a.Finish(), p[r.off:], nil
}

// decodeSection reads one section's row count and rows onto a: the
// constraints, or with objs set the objectives. The first section's
// capacity hint bounds both sections' terms by the bytes that remain.
func decodeSection(r *reader, a *DecodeScratch, numAgents int, objs bool) error {
	rc, err := r.uvarint()
	if err != nil {
		return err
	}
	if rc > uint64(r.remaining()/rowHeaderBytes) {
		return fmt.Errorf("%w: %d rows declared, %d bytes remain", ErrOverflow, rc, r.remaining())
	}
	name, seal := "constraint", a.EndConstraint
	if objs {
		name, seal = "objective", a.EndObjective
		a.Grow(0, int(rc), 0)
	} else {
		a.Grow(int(rc), 0, r.remaining()/bytesPerTerm)
	}
	var prev []mmlp.Term
	for i := range int(rc) {
		row, err := decodeRow(r, a, numAgents)
		if err == nil && !mmlp.RowInOrder(prev, row) {
			err = fmt.Errorf("%w: row or its terms out of order", ErrNotCanonical)
		}
		if err != nil {
			return fmt.Errorf("%s %d: %w", name, i, err)
		}
		seal()
		prev = row
	}
	return nil
}

// decodeRow decodes one row onto a's pending row and returns it; the
// caller checks its order and seals it.
func decodeRow(r *reader, a *DecodeScratch, numAgents int) ([]mmlp.Term, error) {
	hdr, err := r.take(rowHeaderBytes)
	if err != nil {
		return nil, err
	}
	tc := binary.BigEndian.Uint32(hdr)
	if uint64(tc) > uint64(r.remaining()/bytesPerTerm) {
		return nil, fmt.Errorf("%w: %d terms declared, %d bytes remain", ErrOverflow, tc, r.remaining())
	}
	body, _ := r.take(int(tc) * bytesPerTerm) // cannot fail: tc is bounded above
	for j := range int(tc) {
		agent := int64(binary.BigEndian.Uint64(body[j*bytesPerTerm:]) ^ (1 << 63))
		if agent < 0 || agent >= int64(numAgents) {
			return nil, fmt.Errorf("%w: agent %d outside [0, %d)", ErrRange, agent, numAgents)
		}
		a.Add(int(agent), math.Float64frombits(binary.BigEndian.Uint64(body[j*bytesPerTerm+8:])))
	}
	return a.Pending(), nil
}

// DecodeSolve decodes one complete canon solve message: options header,
// instance, and nothing after. It is the exact inverse of AppendSolve on
// the set of payloads it accepts.
func DecodeSolve(payload []byte, sc *DecodeScratch) (*mmlp.Instance, mmlp.SolveOptions, error) {
	o, rest, err := decodeOptions(payload)
	if err != nil {
		return nil, mmlp.SolveOptions{}, err
	}
	in, rest, err := decodeInstance(rest, sc)
	if err != nil {
		return nil, mmlp.SolveOptions{}, err
	}
	if len(rest) != 0 {
		return nil, mmlp.SolveOptions{}, fmt.Errorf("%w: %d bytes after instance", ErrTrailing, len(rest))
	}
	return in, o, nil
}

// ---------------------------------------------------------------------------
// Batch frame: a length-prefixed sequence of solve payloads.

// BatchMagic opens a canon batch frame.
const BatchMagic = "mmlp-canon-batch/v1\n"

// minSolveBytes is the smallest well-formed solve payload: magic, three
// one-byte varints, flags, num_agents and two zero row counts. SplitBatch
// uses it to bound a frame's declared job count by the bytes present.
const minSolveBytes = len(SolveMagic) + 7

// AppendBatch appends a batch frame containing the given solve payloads
// to dst, growing dst once to the frame's size. Payload contents are not
// inspected; SplitBatch checks each one starts with the solve magic.
func AppendBatch(dst []byte, payloads [][]byte) []byte {
	n := len(BatchMagic) + uvarintLen(len(payloads))
	for _, p := range payloads {
		n += uvarintLen(len(p)) + len(p)
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, BatchMagic...)
	dst = binary.AppendUvarint(dst, uint64(len(payloads)))
	for _, p := range payloads {
		dst = binary.AppendUvarint(dst, uint64(len(p)))
		dst = append(dst, p...)
	}
	return dst
}

// uvarintLen is the width of n's uvarint.
func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// SplitBatch splits a batch frame into its solve payloads without copying:
// each element aliases frame. Only the framing and each payload's leading
// magic are checked here — full decoding is the executing shard's job, so
// a router can split and route a batch in O(bytes).
func SplitBatch(frame []byte) ([][]byte, error) {
	if !SniffBatch(frame) {
		return nil, fmt.Errorf("%w: want %q", ErrMagic, BatchMagic)
	}
	r := &reader{p: frame, off: len(BatchMagic)}
	count, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if count > uint64(r.remaining()/(1+minSolveBytes)) {
		return nil, fmt.Errorf("%w: %d jobs declared, %d bytes remain", ErrOverflow, count, r.remaining())
	}
	payloads := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		n, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		if n > uint64(r.remaining()) {
			return nil, fmt.Errorf("job %d: %w: length %d, %d bytes remain", i, ErrOverflow, n, r.remaining())
		}
		p, err := r.take(int(n))
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		if !SniffSolve(p) {
			return nil, fmt.Errorf("job %d: %w: payload does not start with %q", i, ErrMagic, SolveMagic)
		}
		payloads = append(payloads, p)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after %d jobs", ErrTrailing, r.remaining(), count)
	}
	return payloads, nil
}

// ---------------------------------------------------------------------------
// Result frame: the binary form of the batch NDJSON stream. The frame is
// a magic header followed by self-delimiting records in completion order,
// so a server can stream records as jobs finish exactly like it streams
// NDJSON lines, and a proxy can convert line-by-line without buffering.

// ResultsMagic opens a canon result frame.
const ResultsMagic = "mmlp-canon-results/v1\n"

// Result record flag bits.
const (
	resError  = 1 << 0 // record carries an error string, nothing else
	resCached = 1 << 1 // result was served from the result cache
	resDist   = 1 << 2 // record carries rounds/messages/bytes traffic
	resX      = 1 << 3 // record carries the assignment vector
)

// AppendResultsHeader appends the result-frame magic to dst. Write it
// once, before the first record.
func AppendResultsHeader(dst []byte) []byte { return append(dst, ResultsMagic...) }

// AppendResult appends one batch item as a self-delimiting binary record.
// Floats travel as their IEEE-754 bit patterns, so a record round-trips
// the solution bits exactly — the conformance suite leans on that.
func AppendResult(dst []byte, it *mmlp.BatchItem) []byte {
	var flags byte
	if it.Error != "" {
		dst = append(dst, resError)
		dst = binary.AppendUvarint(dst, uint64(it.Index))
		dst = binary.AppendUvarint(dst, uint64(len(it.Error)))
		return append(dst, it.Error...)
	}
	if it.Cached {
		flags |= resCached
	}
	if it.Rounds != 0 || it.Messages != 0 || it.Bytes != 0 {
		flags |= resDist
	}
	if it.X != nil {
		flags |= resX
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(it.Index))
	dst = binary.AppendUvarint(dst, uint64(len(it.Status)))
	dst = append(dst, it.Status...)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(it.Utility))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(it.UpperBound))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(it.LatencyMS))
	if flags&resX != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(it.X)))
		for _, x := range it.X {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(x))
		}
	}
	if flags&resDist != 0 {
		dst = binary.AppendUvarint(dst, uint64(it.Rounds))
		dst = binary.AppendUvarint(dst, uint64(it.Messages))
		dst = binary.AppendUvarint(dst, uint64(it.Bytes))
	}
	return dst
}

// maxWireString bounds string lengths in result records (status names and
// error messages) — far above anything the servers emit, small enough
// that a hostile length cannot size a big allocation.
const maxWireString = 1 << 16

// DecodeResults parses a complete result frame into batch items. Records
// arrive in completion order; Index ties each back to its request slot.
func DecodeResults(frame []byte) ([]mmlp.BatchItem, error) {
	if len(frame) < len(ResultsMagic) || string(frame[:len(ResultsMagic)]) != ResultsMagic {
		return nil, fmt.Errorf("%w: want %q", ErrMagic, ResultsMagic)
	}
	r := &reader{p: frame, off: len(ResultsMagic)}
	var items []mmlp.BatchItem
	for r.remaining() > 0 {
		it, err := decodeResult(r)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", len(items), err)
		}
		items = append(items, it)
	}
	return items, nil
}

func decodeResult(r *reader) (mmlp.BatchItem, error) {
	var it mmlp.BatchItem
	flags, err := r.byte()
	if err != nil {
		return it, err
	}
	if flags&resError != 0 && flags != resError {
		return it, fmt.Errorf("%w: error record with extra flag bits %#x", ErrRange, flags)
	}
	if flags&^byte(resError|resCached|resDist|resX) != 0 {
		return it, fmt.Errorf("%w: reserved result flag bits %#x", ErrRange, flags)
	}
	idx, err := r.uvarint()
	if err != nil {
		return it, err
	}
	if idx > math.MaxInt32 {
		return it, fmt.Errorf("%w: index %d", ErrRange, idx)
	}
	it.Index = int(idx)
	if flags&resError != 0 {
		msg, err := r.string()
		if err != nil {
			return it, err
		}
		if msg == "" {
			// An empty message would re-encode as a success record, giving
			// the frame two spellings; the servers never emit one.
			return it, fmt.Errorf("%w: empty error message", ErrRange)
		}
		it.Error = msg
		return it, nil
	}
	if it.Status, err = r.string(); err != nil {
		return it, err
	}
	fields, err := r.take(24)
	if err != nil {
		return it, err
	}
	it.Utility = math.Float64frombits(binary.BigEndian.Uint64(fields[0:]))
	it.UpperBound = math.Float64frombits(binary.BigEndian.Uint64(fields[8:]))
	it.LatencyMS = math.Float64frombits(binary.BigEndian.Uint64(fields[16:]))
	it.Cached = flags&resCached != 0
	if flags&resX != 0 {
		n, err := r.uvarint()
		if err != nil {
			return it, err
		}
		if n > uint64(r.remaining()/8) {
			return it, fmt.Errorf("%w: %d assignment values declared, %d bytes remain",
				ErrOverflow, n, r.remaining())
		}
		it.X = make([]float64, n)
		for j := range it.X {
			b, err := r.take(8)
			if err != nil {
				return it, err
			}
			it.X[j] = math.Float64frombits(binary.BigEndian.Uint64(b))
		}
	}
	if flags&resDist != 0 {
		vals := [3]int{}
		for j := range vals {
			v, err := r.uvarint()
			if err != nil {
				return it, err
			}
			if v > math.MaxInt {
				return it, fmt.Errorf("%w: traffic counter %d", ErrRange, v)
			}
			vals[j] = int(v)
		}
		if vals == [3]int{} {
			// AppendResult writes the traffic block only when a counter is
			// non-zero; an all-zero block is a second spelling.
			return it, fmt.Errorf("%w: all-zero traffic block", ErrNotCanonical)
		}
		it.Rounds, it.Messages, it.Bytes = vals[0], vals[1], vals[2]
	}
	return it, nil
}

// string reads a uvarint-length-prefixed string, bounded by maxWireString
// and by the bytes present.
func (r *reader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxWireString {
		return "", fmt.Errorf("%w: string length %d exceeds %d", ErrOverflow, n, maxWireString)
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}
