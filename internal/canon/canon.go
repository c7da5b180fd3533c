// Package canon defines the canonical binary encoding of every
// (instance, mmlp.SolveOptions) pair, the cryptographic key derived from
// it, and — since the encoding became the fleet's binary wire format — the
// decoders and frames of that wire surface (see wire.go). The key covers
// exactly what decides a solve's answer bits or whether it fails: the
// instance's content and the five settings of mmlp.SolveOptions.
//
// The paper's algorithm is deterministic: identical instance and options
// always yield bit-identical solutions, so the SHA-256 of the canonical
// encoding is a sound cache index for complete solve results
// (internal/cache fronts the batch and serving layers with exactly that)
// and a sound routing key for the shard layer.
//
// The encoding (version 2, magic "mmlp-canon/v2\n"):
//
//   - options are normalized (mmlp.SolveOptions.Normalized, the solver's
//     own defaults) so spellings of the same configuration collide, and
//     are written as uvarints plus one flags byte;
//   - terms within a row are ordered by mmlp.CompareTerm (the semantics of
//     mmlp.SortTerms, applied to a scratch copy so the caller's instance is
//     never mutated) and written fixed-width: the agent as its sign-flipped
//     big-endian 64-bit pattern, the coefficient as its big-endian IEEE-754
//     bits — so any representable coefficient change, however small,
//     changes the bytes;
//   - rows within each section are ordered lexicographically by their
//     encoded bytes. Because every row field is fixed-width big-endian,
//     byte order IS canonical order: it coincides exactly with the
//     (length, then termwise CompareTerm) order of mmlp.Canonical. A
//     decoded wire message is therefore already in the pipeline's canonical
//     form — no re-canonicalization, no second hashing.
//
// The encoding is self-delimiting (every list is preceded by its length)
// and the decoder rejects non-canonical term or row order, hence each
// equivalence class of (instance, options) pairs has exactly one wire
// representation: two pairs share an encoding — or a key — only by
// describing the same mathematical problem under the same options. That
// injectivity is what lets the shard router route a canon payload by
// hashing its raw bytes, without decoding: HashBytes(AppendSolve(in, o))
// == Hash(in, o) by construction.
//
// Hashing sits on the cache-hit path of the serving layer, so the encoder
// state (hash, message buffer, row buffers, term scratch) is pooled:
// steady-state hashing of similarly-shaped instances does not allocate.
// An instance already in canonical form — every instance the engine keys
// — is written straight into the message, with no row buffers and no row
// sort, so even a cold hasher costs a constant number of allocations.
package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"sync"

	"repro/internal/mmlp"
)

// SolveMagic opens every canon solve message. The version is part of the
// hashed bytes, so an encoding change can never alias keys across versions.
const SolveMagic = "mmlp-canon/v2\n"

// Key identifies a canonical (instance, options) pair.
type Key [sha256.Size]byte

// String renders the key in hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Option flag bits (the flags byte after the varint option fields).
const (
	flagDisableSpecialCases = 1 << 0
	flagSelfCheck           = 1 << 1
	flagsReservedMask       = ^byte(flagDisableSpecialCases | flagSelfCheck)
)

// hasher is the reusable encoder state.
type hasher struct {
	h     hash.Hash
	msg   []byte      // whole-message scratch, reused by Hash
	rows  [][]byte    // appendSorted's row encodings; backings are reused
	terms []mmlp.Term // appendSorted's term copy, so callers' rows stay untouched
}

var hasherPool = sync.Pool{New: func() any { return &hasher{h: sha256.New()} }}

// Hash computes the canonical key of (in, o): the SHA-256 of its canonical
// wire encoding. The instance is read, never mutated; invalid instances
// hash fine (they simply never acquire a cached value, because failed
// solves are not stored).
func Hash(in *mmlp.Instance, o mmlp.SolveOptions) Key {
	s := hasherPool.Get().(*hasher)
	defer hasherPool.Put(s)
	s.msg = s.appendSolve(s.msg[:0], in, o)
	s.h.Reset()
	s.h.Write(s.msg)
	var k Key
	s.h.Sum(k[:0])
	return k
}

// HashBytes computes the key of an already-encoded canon payload. For
// payloads produced by AppendSolve this equals Hash of the encoded pair —
// the invariant the shard router's decode-free routing rests on.
func HashBytes(payload []byte) Key { return Key(sha256.Sum256(payload)) }

// AppendSolve appends the canonical wire encoding of (in, o) to dst and
// returns the extended buffer. The result is exactly the byte string Hash
// hashes, and DecodeSolve inverts it.
func AppendSolve(dst []byte, in *mmlp.Instance, o mmlp.SolveOptions) []byte {
	s := hasherPool.Get().(*hasher)
	defer hasherPool.Put(s)
	return s.appendSolve(dst, in, o)
}

// EncodeSolve is AppendSolve into a fresh buffer.
func EncodeSolve(in *mmlp.Instance, o mmlp.SolveOptions) []byte { return AppendSolve(nil, in, o) }

// appendSolve writes magic, normalized options and the canonicalized
// instance into dst, growing dst once to the message's exact size.
func (s *hasher) appendSolve(dst []byte, in *mmlp.Instance, o mmlp.SolveOptions) []byte {
	dst = slices.Grow(dst, encodedLen(in))
	dst = append(dst, SolveMagic...)
	o = o.Normalized()
	dst = binary.AppendUvarint(dst, uint64(o.Engine))
	dst = binary.AppendUvarint(dst, uint64(o.R))
	dst = binary.AppendUvarint(dst, uint64(o.BinIters))
	flags := byte(0)
	if o.DisableSpecialCases {
		flags |= flagDisableSpecialCases
	}
	if o.SelfCheck {
		flags |= flagSelfCheck
	}
	dst = append(dst, flags)

	dst = binary.AppendUvarint(dst, uint64(in.NumAgents))
	dst = binary.AppendUvarint(dst, uint64(len(in.Cons)))
	dst = appendSection(s, dst, in.Cons)
	dst = binary.AppendUvarint(dst, uint64(len(in.Objs)))
	return appendSection(s, dst, in.Objs)
}

// encodedLen bounds the message appendSolve writes: the header's varints
// at their widest, then every row at its fixed width.
func encodedLen(in *mmlp.Instance) int {
	n := len(SolveMagic) + 6*binary.MaxVarintLen64 + 1
	for _, c := range in.Cons {
		n += rowHeaderBytes + bytesPerTerm*len(c.Terms)
	}
	for _, o := range in.Objs {
		n += rowHeaderBytes + bytesPerTerm*len(o.Terms)
	}
	return n
}

// appendSection emits one section's rows in canonical order. A section
// already in canonical order — every instance the engine keys is — is
// written straight into dst, each row checked as it goes: its terms
// sorted by mmlp.CompareTerm, the row no smaller under mmlp.CompareRows
// (which is byte order on the encodings) than the one before. Those are
// exactly the orders appendSorted establishes, so the bytes are the same.
// The first row out of order sends the whole section through appendSorted
// instead.
func appendSection[R mmlp.Row](s *hasher, dst []byte, rows []R) []byte {
	start := len(dst)
	var prev []mmlp.Term
	for j, r := range rows {
		terms := mmlp.Constraint(r).Terms
		if !slices.IsSortedFunc(terms, mmlp.CompareTerm) || j > 0 && mmlp.CompareRows(prev, terms) > 0 {
			return appendSorted(s, dst[:start], rows)
		}
		dst = appendRow(dst, terms)
		prev = terms
	}
	return dst
}

// appendSorted emits one section in canonical order from any row and term
// order: each row is encoded with its terms sorted into a pooled row
// buffer, then the rows are emitted in lexicographic (== mmlp.Canonical)
// order. Each row is self-delimiting, so plain concatenation is
// injective.
func appendSorted[R mmlp.Row](s *hasher, dst []byte, rows []R) []byte {
	s.rows = s.rows[:0]
	for _, r := range rows {
		s.terms = append(s.terms[:0], mmlp.Constraint(r).Terms...)
		slices.SortFunc(s.terms, mmlp.CompareTerm)
		var buf []byte
		if n := len(s.rows); n < cap(s.rows) {
			buf = s.rows[:n+1][n][:0] // recycle the backing parked in this slot
		}
		s.rows = append(s.rows, appendRow(buf, s.terms))
	}
	slices.SortFunc(s.rows, bytes.Compare)
	for _, row := range s.rows {
		dst = append(dst, row...)
	}
	return dst
}

// orderAgent maps a (possibly negative, in not-yet-validated instances)
// agent index to a big-endian-comparable 64-bit pattern: flipping the sign
// bit makes unsigned byte comparison agree with signed numeric order.
func orderAgent(agent int) uint64 { return uint64(int64(agent)) ^ (1 << 63) }

// appendRow encodes one row in the given term order: a 4-byte big-endian
// term count, then per term the sign-flipped agent pattern and the
// coefficient bits, 8 bytes each, all big-endian. Callers order the terms
// by mmlp.CompareTerm — the one definition this ordering shares with
// mmlp.Canonical, so key equality and pipeline canonicalization can never
// drift apart. Fixed-width fields make lexicographic byte order of whole
// rows coincide with mmlp.Canonical's (length, then termwise CompareTerm)
// row order.
func appendRow(dst []byte, terms []mmlp.Term) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(terms)))
	for _, t := range terms {
		dst = binary.BigEndian.AppendUint64(dst, orderAgent(t.Agent))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(t.Coef))
	}
	return dst
}
