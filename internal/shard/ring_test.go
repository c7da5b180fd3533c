package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/canon"
)

// testKey derives a deterministic canon.Key from a seed, mimicking the
// uniform SHA-256 keys the canonicalizer produces.
func testKey(seed uint64) canon.Key {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seed)
	return canon.Key(sha256.Sum256(buf[:]))
}

func testMembers(n int) []string {
	ms := make([]string, n)
	for i := range ms {
		ms[i] = fmt.Sprintf("10.0.0.%d:8080", i+1)
	}
	return ms
}

func TestNewRejectsBadMembers(t *testing.T) {
	if _, err := New(nil, 8); err == nil {
		t.Fatal("want error for empty member set")
	}
	if _, err := New([]string{"a:1", ""}, 8); err == nil {
		t.Fatal("want error for empty member address")
	}
	if _, err := New([]string{"a:1", "b:1", "a:1"}, 8); err == nil {
		t.Fatal("want error for duplicate member")
	}
	if _, err := New([]string{"a:1"}, MaxPoints+1); err == nil {
		t.Fatal("want error for a replica count past MaxPoints")
	}
	if _, err := New(testMembers(MaxPoints/DefaultReplicas+1), 0); err == nil {
		t.Fatal("want error for a member list past MaxPoints at the default replicas")
	}
	if _, err := New(testMembers(MaxPoints/DefaultReplicas), 0); err != nil {
		t.Fatalf("a ring of exactly MaxPoints points: %v", err)
	}
}

// TestAssignmentDeterministicAcrossRestarts builds the ring twice — once
// from the canonical member order, once from a scrambled one, as two
// independently restarted processes would — and checks every sampled key
// agrees on its owner and its full successor order.
func TestAssignmentDeterministicAcrossRestarts(t *testing.T) {
	members := testMembers(5)
	a, err := New(members, 64)
	if err != nil {
		t.Fatal(err)
	}
	scrambled := []string{members[3], members[0], members[4], members[2], members[1]}
	b, err := New(scrambled, 64)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 2000; seed++ {
		k := testKey(seed)
		if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
			t.Fatalf("key %d: owner %q (canonical order) != %q (scrambled order)", seed, ao, bo)
		}
		as, bs := a.Successors(k, 5), b.Successors(k, 5)
		for i := range as {
			if as[i] != bs[i] {
				t.Fatalf("key %d: successor[%d] %q != %q", seed, i, as[i], bs[i])
			}
		}
	}
}

// TestRemovalRemapsOneNth removes one member and checks (a) only keys it
// owned change owner, (b) the remapped fraction is close to the consistent
// hashing bound 1/N.
func TestRemovalRemapsOneNth(t *testing.T) {
	const nMembers, nKeys = 6, 20000
	members := testMembers(nMembers)
	full, err := New(members, 0) // DefaultReplicas
	if err != nil {
		t.Fatal(err)
	}
	gone := members[2]
	reduced, err := New(append(append([]string{}, members[:2]...), members[3:]...), 0)
	if err != nil {
		t.Fatal(err)
	}
	remapped := 0
	for seed := uint64(0); seed < nKeys; seed++ {
		k := testKey(seed)
		before, after := full.Owner(k), reduced.Owner(k)
		if before == gone {
			remapped++
			continue
		}
		if before != after {
			t.Fatalf("key %d: owner %q changed to %q although %q was the removed member", seed, before, after, gone)
		}
	}
	frac := float64(remapped) / nKeys
	want := 1.0 / nMembers
	// With 128 vnodes per member the removed member's share concentrates
	// near 1/N; allow a generous band so the test is not flaky on the tail.
	if math.Abs(frac-want) > want {
		t.Fatalf("removal remapped %.3f of keys, want ≈ %.3f", frac, want)
	}
	if remapped == 0 {
		t.Fatal("removal remapped nothing; ring is ignoring the member set")
	}
}

// TestBalance checks the vnode construction spreads a key population
// roughly evenly: no member owns more than ~2× its fair share.
func TestBalance(t *testing.T) {
	const nMembers, nKeys = 4, 20000
	r, err := New(testMembers(nMembers), 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for seed := uint64(0); seed < nKeys; seed++ {
		counts[r.Owner(testKey(seed))]++
	}
	fair := nKeys / nMembers
	for m, c := range counts {
		if c > 2*fair || c < fair/2 {
			t.Fatalf("member %s owns %d of %d keys (fair share %d)", m, c, nKeys, fair)
		}
	}
}

// TestSuccessorsDistinctAndComplete checks the retry order covers every
// member exactly once, starting with the owner.
func TestSuccessorsDistinctAndComplete(t *testing.T) {
	r, err := New(testMembers(5), 16)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 500; seed++ {
		k := testKey(seed)
		succ := r.Successors(k, 99)
		if len(succ) != 5 {
			t.Fatalf("key %d: %d successors, want 5", seed, len(succ))
		}
		if succ[0] != r.Owner(k) {
			t.Fatalf("key %d: successor[0] = %q, owner = %q", seed, succ[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, m := range succ {
			if seen[m] {
				t.Fatalf("key %d: duplicate successor %q", seed, m)
			}
			seen[m] = true
		}
	}
}

// TestPinnedAssignments is the cross-version regression: the exact owner of
// fixed keys under a fixed member set is part of the fleet contract — a
// silent change to the hash construction would strand every existing cache
// partition — so the expected values are hard-coded, not computed.
func TestPinnedAssignments(t *testing.T) {
	r, err := New([]string{"s1:9001", "s2:9002", "s3:9003"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 8)
	for seed := range got {
		got[seed] = r.Owner(testKey(uint64(seed)))
	}
	want := []string{
		"s1:9001", "s3:9003", "s3:9003", "s1:9001",
		"s3:9003", "s1:9001", "s2:9002", "s1:9001",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pinned assignment drifted: key %d owned by %q, want %q\nfull got: %q", i, got[i], want[i], got)
		}
	}
}
