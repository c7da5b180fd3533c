// Package shard spreads a key space across a fleet of solver processes so
// that N mmlpserve shards behave like one big pool with one partitioned
// result cache. The paper's algorithm is local — each agent decides from a
// constant-radius neighbourhood — so solving parallelises across machines
// as naturally as across goroutines; what the fleet needs from this package
// is only a deterministic, stable answer to "which process owns this
// problem?".
//
// Keys are canon.Key values: the canonical (instance, options) hash the
// result cache already computes. Routing by the canonical key (rather than,
// say, a raw body hash) means every syntactic spelling of one mathematical
// problem — rows permuted, terms reordered — lands on the same shard, so
// each shard's local result cache becomes a partition of one fleet-wide
// cache with no duplicate entries across processes.
//
// The assignment is a consistent-hash ring: every member is planted at
// Replicas pseudo-random points (virtual nodes) on a 2^64 circle, a key
// sits at the point named by its leading 8 bytes, and the key's owner is
// the member whose point follows next clockwise. The construction is a
// pure function of (members, replicas) — no seeds, no map iteration — so
// every process that builds the ring from the same flag values computes the
// same assignment, across restarts and across machines. Removing a member
// reassigns only the arcs it owned (≈ 1/N of the key space); every other
// key keeps its owner, so a shard failure invalidates only that shard's
// cache partition.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/canon"
)

// DefaultReplicas is the virtual-node count per member. 128 points per
// member keeps the expected load imbalance of a small fleet within a few
// percent while the ring stays tiny (N·128 16-byte points).
const DefaultReplicas = 128

// MaxPoints bounds a ring's points, members × replicas: both /admin/ring
// routes build a ring from a request body, and this many points take
// ~33 ms and 1 MB where an unbounded body could ask for minutes and GBs.
const MaxPoints = 1 << 16

// point is one virtual node: a position on the 2^64 circle and the member
// planted there.
type point struct {
	pos    uint64
	member int // index into Ring.members
}

// Ring is an immutable consistent-hash ring. Build one with New; health
// tracking lives in Client, so a Ring shared across goroutines needs no
// locking.
type Ring struct {
	members  []string
	replicas int
	points   []point // sorted by pos
}

// New builds the ring for the given member addresses. Members must be
// non-empty and distinct; replicas ≤ 0 selects DefaultReplicas, and the
// ring may hold at most MaxPoints points. The member order given by the
// caller is irrelevant: points depend only on the member strings, so every
// process configured with the same set computes the same ring.
func New(members []string, replicas int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one member")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	if replicas > MaxPoints/len(members) { // the product could overflow
		return nil, fmt.Errorf("shard: %d members × %d replicas exceed the ring's %d points",
			len(members), replicas, MaxPoints)
	}
	ms := slices.Clone(members)
	slices.Sort(ms)
	for i, m := range ms {
		if m == "" {
			return nil, fmt.Errorf("shard: empty member address")
		}
		if i > 0 && ms[i-1] == m {
			return nil, fmt.Errorf("shard: duplicate member %q", m)
		}
	}
	r := &Ring{members: ms, replicas: replicas, points: make([]point, 0, len(ms)*replicas)}
	for mi, m := range ms {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, point{pos: vnodePos(m, v), member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		// A 64-bit collision between different members is vanishingly rare
		// but must not make the assignment depend on sort stability.
		return r.members[r.points[i].member] < r.members[r.points[j].member]
	})
	return r, nil
}

// vnodePos hashes (member, vnode) to a circle position. SHA-256 keeps the
// point distribution uniform and the construction obviously seed-free; the
// ring is built once per process, so the hash cost is irrelevant.
func vnodePos(member string, vnode int) uint64 {
	h := sha256.New()
	h.Write([]byte("mmlp-ring/v1\x00"))
	h.Write([]byte(member))
	var buf [9]byte
	buf[0] = 0
	n := binary.PutUvarint(buf[1:], uint64(vnode))
	h.Write(buf[:1+n])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return binary.BigEndian.Uint64(sum[:8])
}

// Members returns the member addresses in canonical (sorted) order. The
// slice is shared; callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// Replicas returns the virtual-node count per member.
func (r *Ring) Replicas() int { return r.replicas }

// pos places a key on the circle: its leading 8 bytes, big-endian. canon
// keys are SHA-256 outputs, so the prefix is uniform on the circle.
func pos(k canon.Key) uint64 { return binary.BigEndian.Uint64(k[:8]) }

// successor returns the index in points of the first virtual node at or
// after p, wrapping past the top of the circle.
func (r *Ring) successor(p uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= p })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the member that owns k.
func (r *Ring) Owner(k canon.Key) string {
	return r.members[r.points[r.successor(pos(k))].member]
}

// Successors returns up to n distinct members in ring order starting at
// k's owner: the owner first, then the members that would inherit k if the
// ones before them disappeared. This is the retry order for a down shard.
func (r *Ring) Successors(k canon.Key, n int) []string {
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i, start := 0, r.successor(pos(k)); len(out) < n && i < len(r.points); i++ {
		pt := r.points[(start+i)%len(r.points)]
		if !seen[pt.member] {
			seen[pt.member] = true
			out = append(out, r.members[pt.member])
		}
	}
	return out
}
