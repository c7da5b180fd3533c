// Package canon defines the canonical binary encoding of every
// (instance, mmlp.SolveOptions) pair, the cryptographic key derived from
// it (key.go), and — since the encoding became the fleet's binary wire
// format — the decoders and frames of that wire surface (wire.go). The
// key covers exactly what decides a solve's answer bits or whether it
// fails: the instance's content and the five settings of
// mmlp.SolveOptions.
//
// The paper's algorithm is deterministic: identical instance and options
// always yield bit-identical solutions, so a collision-resistant hash of
// the canonical encoding is a sound cache index for complete solve
// results (internal/cache fronts the batch and serving layers with
// exactly that) and a sound routing key for the shard layer.
//
// The encoding (version 2, magic "mmlp-canon/v2\n"):
//
//   - options are normalized (mmlp.SolveOptions.Normalized, the solver's
//     own defaults) so spellings of the same configuration collide, and
//     are written as uvarints plus one flags byte;
//   - terms within a row are ordered by mmlp.CompareTerm and written
//     fixed-width: the agent as its sign-flipped big-endian 64-bit
//     pattern, the coefficient as its big-endian IEEE-754 bits — so any
//     representable coefficient change, however small, changes the bytes;
//   - rows within each section are ordered by mmlp.CompareRows (length,
//     then termwise CompareTerm), the row order of mmlp.Canonical. A
//     section out of that order is encoded from its canonical copy
//     (mmlp.Instance.CanonicalSectionsInto), so the caller's instance is
//     never mutated, and a decoded wire message is already in the
//     pipeline's canonical form — no re-canonicalization, no second
//     hashing.
//
// The encoding is self-delimiting (every list is preceded by its length)
// and the decoder rejects non-canonical term or row order, hence each
// equivalence class of (instance, options) pairs has exactly one wire
// representation: two pairs share an encoding — or a key — only by
// describing the same mathematical problem under the same options. That
// injectivity is what lets the shard router route a canon payload by
// hashing its raw bytes, without decoding: the key is a function of the
// message bytes alone (HashBytes), so HashBytes(AppendSolve(in, o)) ==
// Hash(in, o) by construction.
//
// The key is SHA-256 over a tag and the SHA-256 digests of the message's
// 4 KiB chunks, not over the message itself, so that a delta can key its
// edited instance from its base's chunk digests, re-hashing only the
// chunks its written rows fall in (EditKeyer). A reweight keeps every
// row's width, so every byte of the edited message stays at its base
// offset.
//
// Hashing sits on the cache-hit path of the serving layer, so the encoder
// state (message buffer, the arena of a canonical copy) is pooled:
// steady-state hashing of similarly-shaped instances does not allocate.
// An instance already in canonical form — every instance the engine keys
// — is written straight into the message in one pass, with no copy, so
// even a cold hasher costs a constant number of allocations.
package canon

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"repro/internal/mmlp"
)

// SolveMagic opens every canon solve message. The version is part of the
// hashed bytes, so an encoding change can never alias keys across versions.
const SolveMagic = "mmlp-canon/v2\n"

// Option flag bits (the flags byte after the varint option fields).
const (
	flagDisableSpecialCases = 1 << 0
	flagSelfCheck           = 1 << 1
	flagsReservedMask       = ^byte(flagDisableSpecialCases | flagSelfCheck)
)

// hasher is the reusable encoder state.
type hasher struct {
	msg []byte            // whole-message scratch, reused by Hash and EditKeyer.Key
	cs  mmlp.CanonScratch // the canonical copy of a section out of order
}

var hasherPool = sync.Pool{New: func() any { return new(hasher) }}

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
// instance into dst, growing dst once to the message's exact size. Each
// section is written in one pass while its rows are in canonical order;
// a section found out of order is rewritten from its canonical copy, and
// the other section is still written straight from in.
func (s *hasher) appendSolve(dst []byte, in *mmlp.Instance, o mmlp.SolveOptions) []byte {
	dst = appendHeader(slices.Grow(dst, encodedLen(in)), in.NumAgents, o)
	start := len(dst)
	dst, ok := appendSection(dst, in.Cons, true)
	if !ok {
		dst, _ = appendSection(dst[:start], in.CanonicalSectionsInto(&s.cs, true, false).Cons, false)
	}
	start = len(dst)
	dst, ok = appendSection(dst, in.Objs, true)
	if !ok {
		dst, _ = appendSection(dst[:start], in.CanonicalSectionsInto(&s.cs, false, true).Objs, false)
	}
	return dst
}

// appendHeader writes the magic, the normalized options and the agent
// count: every byte of the message before its sections.
func appendHeader(dst []byte, numAgents int, o mmlp.SolveOptions) []byte {
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
	return binary.AppendUvarint(dst, uint64(numAgents))
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

// appendSection writes one section, its row count and then its rows,
// straight into dst. With check it checks each row with mmlp.RowInOrder as
// it goes and reports false at the first row out of order; appendSolve
// then rewrites the section from its canonical copy, whose rows
// CanonicalSectionsInto has already ordered, without the check. Every
// instance the engine keys is canonical, so it takes the one pass.
func appendSection[R mmlp.Row](dst []byte, rows []R, check bool) ([]byte, bool) {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	var prev []mmlp.Term
	for _, r := range rows {
		terms := mmlp.Constraint(r).Terms
		if check && !mmlp.RowInOrder(prev, terms) {
			return dst, false
		}
		dst = appendRow(dst, terms)
		prev = terms
	}
	return dst, true
}

// orderAgent maps a (possibly negative, in not-yet-validated instances)
// agent index to its wire pattern, the index with its sign bit flipped.
func orderAgent(agent int) uint64 { return uint64(int64(agent)) ^ (1 << 63) }

// appendRow encodes one row in the given term order: a 4-byte big-endian
// term count, then per term the sign-flipped agent pattern and the
// coefficient bits, 8 bytes each, all big-endian. Callers order the terms
// by mmlp.CompareTerm — the one definition this ordering shares with
// mmlp.Canonical, so key equality and pipeline canonicalization can never
// drift apart.
func appendRow(dst []byte, terms []mmlp.Term) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(terms)))
	for _, t := range terms {
		dst = appendTerm(dst, t)
	}
	return dst
}

// appendTerm encodes one term, bytesPerTerm bytes.
func appendTerm(dst []byte, t mmlp.Term) []byte {
	dst = binary.BigEndian.AppendUint64(dst, orderAgent(t.Agent))
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(t.Coef))
}
