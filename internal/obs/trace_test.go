package obs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.Reset()
	tr.Add(StageKernel, time.Millisecond)
	tr.Set(StageEncode, 5)
	if got := tr.NS(StageKernel); got != 0 {
		t.Fatalf("nil trace NS = %d", got)
	}
}

func TestTraceRecordAndRender(t *testing.T) {
	var tr Trace
	tr.Add(StageKernel, 2*time.Millisecond)
	tr.Add(StageKernel, time.Millisecond) // spans accumulate
	tr.Set(StageQueueWait, int64(500*time.Microsecond))
	tr.Add(StageTransform, -time.Second) // negative spans ignored
	tr.Add(NumStages, time.Second)       // out of range ignored

	if got := tr.NS(StageKernel); got != int64(3*time.Millisecond) {
		t.Fatalf("kernel = %d", got)
	}
	m := tr.MSMap()
	if len(m) != 2 || m["kernel"] != 3 || m["queue_wait"] != 0.5 {
		t.Fatalf("MSMap = %v", m)
	}
	cp := tr // value copy is independent
	cp.Reset()
	if tr.NS(StageKernel) == 0 {
		t.Fatal("reset of copy mutated original")
	}

	for s := Stage(0); s < NumStages; s++ {
		if s.String() == "" || s.String() == "unknown" {
			t.Fatalf("stage %d unnamed", s)
		}
	}
	if NumStages.String() != "unknown" {
		t.Fatal("out-of-range stage name")
	}
}

func TestTraceIDContext(t *testing.T) {
	if got := TraceID(context.Background()); got != "" {
		t.Fatalf("empty ctx trace id = %q", got)
	}
	ctx := WithTraceID(context.Background(), "abc123")
	if got := TraceID(ctx); got != "abc123" {
		t.Fatalf("trace id = %q", got)
	}
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || a == b {
		t.Fatalf("trace ids %q, %q", a, b)
	}
}

// TestDeadlineContext pins the X-Mmlp-Deadline-Ms contract both binaries
// share: a valid header bounds the request, an absent one falls back to
// the default (none when zero), and a malformed one is an error the
// caller answers with 400.
func TestDeadlineContext(t *testing.T) {
	cases := []struct {
		name, header string
		def          time.Duration
		want         time.Duration // 0: unbounded
		bad          bool
	}{
		{"absent", "", 0, 0, false},
		{"absent with default", "", time.Minute, time.Minute, false},
		{"header", "1500", 0, 1500 * time.Millisecond, false},
		{"header beats default", "1500", time.Hour, 1500 * time.Millisecond, false},
		{"zero", "0", 0, 0, true},
		{"negative", "-5", time.Minute, 0, true},
		{"not a number", "soon", 0, 0, true},
		{"fractional", "1.5", 0, 0, true},
		{"wraps to a short deadline", "18446744073710", 0, 0, true},
		{"wraps to no deadline", "9223372036854775807", time.Minute, 0, true},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", nil)
		if c.header != "" {
			r.Header.Set(DeadlineHeader, c.header)
		}
		before := time.Now()
		ctx, cancel, err := DeadlineContext(r, c.def)
		if c.bad {
			if err == nil || !strings.Contains(err.Error(), DeadlineHeader) {
				t.Fatalf("%s: err = %v, want a malformed-header error", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		dl, ok := ctx.Deadline()
		if c.want == 0 {
			if ok || cancel != nil {
				t.Fatalf("%s: unbounded request got deadline %v (cancel %v)", c.name, dl, cancel != nil)
			}
			continue
		}
		if !ok || cancel == nil {
			t.Fatalf("%s: no deadline applied", c.name)
		}
		cancel()
		if got := dl.Sub(before); got < c.want-time.Second || got > c.want+time.Second {
			t.Fatalf("%s: deadline in %v, want ≈%v", c.name, got, c.want)
		}
	}
}
