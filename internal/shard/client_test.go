package shard

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/canon"
)

// fleet starts n httptest shards whose handler echoes its shard index, and
// returns their host:port addresses plus a per-shard hit counter.
func fleet(t *testing.T, n int, handler func(i int, w http.ResponseWriter, r *http.Request)) ([]string, []*atomic.Int64) {
	t.Helper()
	addrs := make([]string, n)
	hits := make([]*atomic.Int64, n)
	for i := 0; i < n; i++ {
		i := i
		hits[i] = &atomic.Int64{}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			handler(i, w, r)
		}))
		t.Cleanup(srv.Close)
		u, err := url.Parse(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = u.Host
	}
	return addrs, hits
}

func newTestClient(t *testing.T, addrs []string, cooldown time.Duration) *Client {
	t.Helper()
	ring, err := New(addrs, 16)
	if err != nil {
		t.Fatal(err)
	}
	return NewClient(ring, ClientOptions{Cooldown: cooldown})
}

func TestDoForwardsToOwner(t *testing.T) {
	addrs, hits := fleet(t, 3, func(i int, w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if string(body) != "payload" {
			t.Errorf("shard %d got body %q", i, body)
		}
		io.WriteString(w, addrs0(r))
	})
	c := newTestClient(t, addrs, time.Second)

	k := testKey(7)
	resp, member, err := do(c, k, "/v1/solve", "application/json", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if member != c.Ring().Owner(k) {
		t.Fatalf("forwarded to %q, owner is %q", member, c.Ring().Owner(k))
	}
	total := int64(0)
	for _, h := range hits {
		total += h.Load()
	}
	if total != 1 {
		t.Fatalf("%d shards were hit, want 1", total)
	}
	st := c.Stats()
	if st.Forwarded != 1 || st.Retried != 0 || st.ShardDown != 0 {
		t.Fatalf("stats = %+v, want 1 forward, 0 retries, 0 down", st)
	}
}

// do forwards body through DoOn on c's current ring generation.
func do(c *Client, k canon.Key, path, contentType string, body []byte) (*http.Response, string, error) {
	rv := c.Acquire()
	defer c.Release(rv)
	return c.DoOn(context.Background(), rv, k, path, contentType, body)
}

// addrs0 pulls the Host header so the handler can echo its own identity.
func addrs0(r *http.Request) string { return r.Host }

// TestDoRetriesNextReplica points the ring at two live shards plus one
// address nothing listens on, picks a key the dead member owns, and checks
// Do lands on the next distinct replica, marks the owner down, and
// subsequently routes straight to the stand-in without re-dialling the
// corpse.
func TestDoRetriesNextReplica(t *testing.T) {
	addrs, _ := fleet(t, 2, func(i int, w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, r.Host)
	})
	dead := "127.0.0.1:1" // reserved port, connection refused
	ring, err := New([]string{addrs[0], addrs[1], dead}, 16)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(ring, ClientOptions{Cooldown: time.Minute})

	var k canon.Key
	found := false
	for seed := uint64(0); seed < 4096; seed++ {
		if kk := testKey(seed); ring.Owner(kk) == dead {
			k, found = kk, true
			break
		}
	}
	if !found {
		t.Fatal("no key owned by the dead member in 4096 samples")
	}

	resp, member, err := do(c, k, "/x", "application/json", nil)
	if err != nil {
		t.Fatalf("Do failed entirely: %v", err)
	}
	resp.Body.Close()
	if member == dead {
		t.Fatalf("Do claims the dead member %q responded", dead)
	}
	if want := ring.Successors(k, 3)[1]; member != want {
		t.Fatalf("retried onto %q, want next replica %q", member, want)
	}
	st := c.Stats()
	if st.Retried != 1 || st.ShardDown != 1 {
		t.Fatalf("stats = %+v, want 1 retry and 1 down transition", st)
	}

	// While the cooldown holds, Owner routes around the corpse directly and
	// Do needs no further retries.
	rv := c.Acquire()
	got := c.OwnerOn(rv, k)
	c.Release(rv)
	if got == dead {
		t.Fatalf("Owner still routes to the down member %q", got)
	}
	resp, _, err = do(c, k, "/x", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := c.Stats(); st.Retried != 1 {
		t.Fatalf("second Do re-dialled the down member: %+v", st)
	}
}

// TestCooldownExpiry checks a down member rejoins once its cooldown lapses.
func TestCooldownExpiry(t *testing.T) {
	addrs, _ := fleet(t, 2, func(i int, w http.ResponseWriter, r *http.Request) {})
	c := newTestClient(t, addrs, 50*time.Millisecond)
	m := addrs[0]
	c.markDown(m)
	if !c.down(m) {
		t.Fatal("member not down after markDown")
	}
	if got := len(c.Healthy()); got != 1 {
		t.Fatalf("%d healthy members, want 1", got)
	}
	time.Sleep(60 * time.Millisecond)
	if c.down(m) {
		t.Fatal("member still down after cooldown expiry")
	}
	if got := len(c.Healthy()); got != 2 {
		t.Fatalf("%d healthy members, want 2", got)
	}
}

// TestDoFallsBackToCooledDownMembers is the regression for the
// healthy-member-fails-while-others-cool-down case: when every healthy
// member fails at the transport level, Do must still dial the members in
// cooldown — they may have recovered — instead of returning 502 for a
// fleet that is mostly up.
func TestDoFallsBackToCooledDownMembers(t *testing.T) {
	addrs, _ := fleet(t, 2, func(i int, w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, r.Host)
	})
	dead := "127.0.0.1:1"
	ring, err := New([]string{addrs[0], addrs[1], dead}, 16)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(ring, ClientOptions{Cooldown: time.Minute})
	// The live members sit in cooldown (say they flapped a moment ago);
	// the only "healthy" member is the dead one.
	c.markDown(addrs[0])
	c.markDown(addrs[1])

	var k canon.Key
	found := false
	for seed := uint64(0); seed < 4096; seed++ {
		if kk := testKey(seed); ring.Owner(kk) == dead {
			k, found = kk, true
			break
		}
	}
	if !found {
		t.Fatal("no key owned by the dead member in 4096 samples")
	}
	resp, member, err := do(c, k, "/x", "application/json", nil)
	if err != nil {
		t.Fatalf("Do gave up without dialling the cooled-down members: %v", err)
	}
	resp.Body.Close()
	if member == dead {
		t.Fatalf("Do claims the dead member %q responded", dead)
	}
}

// TestDoAllDown checks that a fully-down fleet yields the transport error,
// not a fabricated success, and that the second pass re-tries cooled-down
// members rather than refusing outright.
func TestDoAllDown(t *testing.T) {
	dead := []string{"127.0.0.1:1", "127.0.0.1:2"}
	ring, err := New(dead, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(ring, ClientOptions{Cooldown: time.Minute})
	for _, m := range dead {
		c.markDown(m)
	}
	_, _, err = do(c, testKey(1), "/x", "application/json", nil)
	if err == nil {
		t.Fatal("Do succeeded against a fully-dead fleet")
	}
	if !strings.Contains(err.Error(), "refused") && !strings.Contains(err.Error(), "connect") {
		t.Fatalf("want a transport error, got %v", err)
	}
}
