package canon

// This file is the key: the one function from a canon message to the
// cache and routing index of its solve, and the edit keyer that computes
// it for a delta from its base's memo.
//
//	key = SHA-256("mmlp-key/v3\n" ‖ SHA-256(c₀) ‖ SHA-256(c₁) ‖ …)
//
// where cᵢ is the i-th chunkSize slice of the message AppendSolve writes
// (the last one shorter). The key reads the message bytes and nothing
// else, so the router keys a canon payload without parsing it
// (HashBytes), and a JSON request keyed from its instance (Hash) lands
// on the same key as its canon spelling. Hashing the chunk digests
// instead of the message costs a cold key one more digest per 4 KiB (~4%
// on the 3,000-agent necklace's 124 KB message), and lets a delta
// re-hash only the chunks its rows change.

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/mmlp"
)

// keyTag opens the hashed digest list. It keeps keys of this two-level
// definition from aliasing the earlier flat SHA-256 of the message; keys
// live only in memory, so nothing stored needs migrating.
var keyTag = []byte("mmlp-key/v3\n")

// chunkSize is the width of the message slices whose digests the key
// hashes.
const chunkSize = 4096

// Key identifies a canonical (instance, options) pair.
type Key [sha256.Size]byte

// String renders the key in hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hash computes the canonical key of (in, o): the key of its canonical
// wire encoding. The instance is read, never mutated; invalid instances
// hash fine (they simply never acquire a cached value, because failed
// solves are not stored).
func Hash(in *mmlp.Instance, o mmlp.SolveOptions) Key {
	s := hasherPool.Get().(*hasher)
	defer hasherPool.Put(s)
	s.msg = s.appendSolve(s.msg[:0], in, o)
	return HashBytes(s.msg)
}

// HashBytes computes the key of an already-encoded canon payload without
// parsing it. For payloads produced by AppendSolve this equals Hash of
// the encoded pair — the invariant the shard router's decode-free routing
// rests on. It allocates nothing: the outer digest lives on the stack.
func HashBytes(payload []byte) Key {
	h := sha256.New()
	h.Write(keyTag)
	for p := payload; len(p) > 0; {
		c := p[:min(len(p), chunkSize)]
		d := sha256.Sum256(c)
		h.Write(d[:])
		p = p[len(c):]
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// keyOf is the key of a message whose chunk digests are ds.
func keyOf(ds []byte) Key {
	h := sha256.New()
	h.Write(keyTag)
	h.Write(ds)
	var k Key
	h.Sum(k[:0])
	return k
}

// EditKeyer keys instances edited from one canonical base without
// encoding or hashing them in full. It holds the base's message, the
// digest of each of its chunks and the offset of each of its rows, and is
// read-only once built, so any number of goroutines may share it.
//
// An edited instance keys by patching when it has the base's agent count
// and section lengths and every row it does not share with the base has
// the width of the base's row at its index: its message then has every
// byte at the base's offset, and only the chunks holding a row it does
// not share differ. A row is shared when it is the base's row at the same
// index — the same terms in the same memory — which is how delta.Apply
// builds an edit, copy-on-write. Shared rows are taken for the base's
// bytes without reading them, so the base's rows must never be written:
// the contract every canonical instance in the pipeline keeps. A
// reweight keys by patching, a move included; an added or removed row
// does not.
type EditKeyer struct {
	base    *mmlp.Instance
	msg     []byte // the base's message
	digests []byte // its chunk digests, sha256.Size bytes each
	offs    []int  // the message offset of each row: constraints, then objectives
}

// NewEditKeyer builds the keyer of base under o, or returns nil when base
// is not in canonical form: only a canonical base writes each row at its
// own index's offset.
func NewEditKeyer(base *mmlp.Instance, o mmlp.SolveOptions) *EditKeyer {
	msg := appendHeader(make([]byte, 0, encodedLen(base)), base.NumAgents, o)
	offs := make([]int, 0, len(base.Cons)+len(base.Objs))
	msg, offs, ok := appendIndexed(msg, base.Cons, offs)
	if ok {
		msg, offs, ok = appendIndexed(msg, base.Objs, offs)
	}
	if !ok {
		return nil
	}
	ds := make([]byte, 0, sha256.Size*((len(msg)+chunkSize-1)/chunkSize))
	for p := msg; len(p) > 0; {
		c := p[:min(len(p), chunkSize)]
		d := sha256.Sum256(c)
		ds = append(ds, d[:]...)
		p = p[len(c):]
	}
	return &EditKeyer{base: base, msg: msg, digests: ds, offs: offs}
}

// appendIndexed is appendSection with the check, also appending each
// row's message offset to offs.
func appendIndexed[R mmlp.Row](dst []byte, rows []R, offs []int) ([]byte, []int, bool) {
	off := len(dst) + uvarintLen(len(rows))
	for _, r := range rows {
		offs = append(offs, off)
		off += rowHeaderBytes + bytesPerTerm*len(mmlp.Constraint(r).Terms)
	}
	dst, ok := appendSection(dst, rows, true)
	return dst, offs, ok
}

// Bytes estimates the keyer's heap footprint for cache accounting. The
// base instance is not counted: the record that holds the keyer holds it
// too.
func (k *EditKeyer) Bytes() int64 {
	if k == nil {
		return 0
	}
	return int64(64 + cap(k.msg) + cap(k.digests) + 8*cap(k.offs))
}

// Check reports whether edited keys by patching (see EditKeyer): it has
// the base's agent count and section lengths, each row it does not share
// with the base has the base row's width, and each such row is in
// canonical order with its neighbours (mmlp.RowInOrder). The rows it
// shares are the base's, in order with each other, so edited is then in
// canonical form. A nil keyer accepts nothing.
func (k *EditKeyer) Check(edited *mmlp.Instance) bool {
	return k != nil && edited.NumAgents == k.base.NumAgents &&
		checkSection(edited.Cons, k.base.Cons) && checkSection(edited.Objs, k.base.Objs)
}

func checkSection[R mmlp.Row](rows, base []R) bool {
	if len(rows) != len(base) {
		return false
	}
	if len(rows) == 0 || &rows[0] == &base[0] {
		return true
	}
	for i := range rows {
		row := mmlp.Constraint(rows[i]).Terms
		b := mmlp.Constraint(base[i]).Terms
		if sameRow(row, b) {
			continue
		}
		if len(row) != len(b) ||
			i > 0 && !mmlp.RowInOrder(mmlp.Constraint(rows[i-1]).Terms, row) ||
			i+1 < len(rows) && !mmlp.RowInOrder(row, mmlp.Constraint(rows[i+1]).Terms) {
			return false
		}
	}
	return true
}

// sameRow reports whether a is b: the same terms in the same memory.
func sameRow(a, b []mmlp.Term) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Key returns Hash(edited, o) for an edited instance Check accepted,
// computed from the base's chunk digests: each chunk that holds a row
// edited does not share with the base is copied from the base's message,
// patched with that row's terms and re-hashed, and every other digest is
// the base's. Its cost is the patched chunks plus the digest list, not
// the message.
func (k *EditKeyer) Key(edited *mmlp.Instance) Key {
	s := hasherPool.Get().(*hasher)
	defer hasherPool.Put(s)
	p := patch{msg: k.msg, digests: append(s.msg[:0], k.digests...), cur: -1}
	patchSection(&p, edited.Cons, k.base.Cons, k.offs)
	patchSection(&p, edited.Objs, k.base.Objs, k.offs[len(k.base.Cons):])
	p.flush()
	s.msg = p.digests
	return keyOf(p.digests)
}

// patchSection writes into p the terms of each row of rows that it does
// not share with base. The row's width is the base row's, and so is its
// count prefix, which is not rewritten.
func patchSection[R mmlp.Row](p *patch, rows, base []R, offs []int) {
	if len(rows) == 0 || &rows[0] == &base[0] {
		return
	}
	for i := range rows {
		row := mmlp.Constraint(rows[i]).Terms
		if sameRow(row, mmlp.Constraint(base[i]).Terms) {
			continue
		}
		off := offs[i] + rowHeaderBytes
		for _, t := range row {
			var b [bytesPerTerm]byte
			p.write(off, appendTerm(b[:0], t))
			off += bytesPerTerm
		}
	}
}

// patch is the chunk an edit key is rewriting: a copy of one chunk of
// the base message, its digest re-computed when the next chunk is
// loaded. Writes come in increasing offset order, so every chunk is
// loaded once and a digest is never re-computed from stale bytes.
type patch struct {
	msg     []byte // the base message
	digests []byte // the chunk digests, patched in place
	cur     int    // the chunk in buf, -1 before the first write
	buf     [chunkSize]byte
}

// write overwrites the message bytes at off with b, loading (and
// flushing) chunks as b crosses into them.
func (p *patch) write(off int, b []byte) {
	for len(b) > 0 {
		c := off / chunkSize
		if c != p.cur {
			p.flush()
			p.cur = c
			copy(p.buf[:], p.msg[c*chunkSize:])
		}
		n := copy(p.chunk()[off-c*chunkSize:], b)
		off, b = off+n, b[n:]
	}
}

// chunk is the current chunk's bytes, shorter than chunkSize at the end
// of the message.
func (p *patch) chunk() []byte { return p.buf[:min(chunkSize, len(p.msg)-p.cur*chunkSize)] }

// flush stores the current chunk's digest.
func (p *patch) flush() {
	if p.cur >= 0 {
		d := sha256.Sum256(p.chunk())
		copy(p.digests[p.cur*sha256.Size:], d[:])
	}
}
