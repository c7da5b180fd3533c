package fault

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/mmlp"
)

func TestParseEmptyAndDirectiveOnly(t *testing.T) {
	for _, spec := range []string{"", "   ", "seed=7", "path=/v1/ rate=0.5"} {
		in, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if in != nil {
			t.Fatalf("Parse(%q) = %+v, want nil injector", spec, in)
		}
		// A nil injector must be transparent.
		h := http.NotFoundHandler()
		if got := in.Wrap(h); got == nil {
			t.Fatalf("nil injector Wrap returned nil")
		}
		if in.Count() != 0 {
			t.Fatalf("nil injector Count = %d", in.Count())
		}
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"bogus=1",
		"latency=800ms error=503", // two actions in one rule
		"error=42",                // status out of range
		"error=xyz",
		"latency=fast",
		"rate=1.5 latency=1ms",
		"rate=0 latency=1ms",
		"truncate=-1",
		"blackhole=yes",
		"seed=abc latency=1ms",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
}

func TestParseRules(t *testing.T) {
	in, err := Parse("path=/v1/ latency=800ms; error=503 rate=0.25; seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(in.rules))
	}
	if r := in.rules[0]; r.Path != "/v1/" || r.Latency != 800*time.Millisecond || r.Rate != 1 {
		t.Errorf("rule 0 = %+v", r)
	}
	if r := in.rules[1]; r.ErrorCode != 503 || r.Rate != 0.25 || r.Path != "" {
		t.Errorf("rule 1 = %+v", r)
	}
}

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
}

func TestErrorRuleAndPathScope(t *testing.T) {
	in, err := Parse("path=/v1/solve error=418")
	if err != nil {
		t.Fatal(err)
	}
	h := in.Wrap(okHandler())

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", nil))
	if rec.Code != 418 {
		t.Fatalf("matched path: status %d, want 418", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "injected fault") {
		t.Fatalf("matched path: body %q", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || rec.Body.String() != "ok" {
		t.Fatalf("unmatched path: status %d body %q", rec.Code, rec.Body.String())
	}
	if in.Count() != 1 {
		t.Fatalf("Count = %d, want 1 (only the matched request)", in.Count())
	}
}

func TestRateRollsAreDeterministic(t *testing.T) {
	sequence := func() []bool {
		in, err := Parse("error=500 rate=0.5; seed=42")
		if err != nil {
			t.Fatal(err)
		}
		h := in.Wrap(okHandler())
		var fired []bool
		for i := 0; i < 64; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
			fired = append(fired, rec.Code == 500)
		}
		return fired
	}
	a, b := sequence(), sequence()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at request %d: same spec must replay the same faults", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("rate=0.5 fired %d/%d times; the roll is not happening", hits, len(a))
	}
}

func TestLatencyRuleDelays(t *testing.T) {
	in, err := Parse("latency=50ms")
	if err != nil {
		t.Fatal(err)
	}
	h := in.Wrap(okHandler())
	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("request took %v, want >= 50ms", elapsed)
	}
	if rec.Code != 200 || rec.Body.String() != "ok" {
		t.Fatalf("latency rule altered the response: %d %q", rec.Code, rec.Body.String())
	}
}

func TestTruncateAbortsMidStream(t *testing.T) {
	in, err := Parse("truncate=5")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(in.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 10; i++ {
			io.WriteString(w, "abcd\n")
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
	})))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		return // connection died before headers — also a valid truncation
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && len(body) >= 50 {
		t.Fatalf("read full %d-byte body, want truncation after ~5 bytes", len(body))
	}
	if len(body) > 5 {
		t.Fatalf("read %d bytes past the 5-byte allowance", len(body))
	}
}

func TestSlowRuleDripsBody(t *testing.T) {
	in, err := Parse("slow=20ms")
	if err != nil {
		t.Fatal(err)
	}
	h := in.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 3; i++ {
			io.WriteString(w, "line\n")
		}
	}))
	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("3 writes took %v, want >= 60ms at 20ms/write", elapsed)
	}
	if got := rec.Body.String(); got != "line\nline\nline\n" {
		t.Fatalf("slow rule corrupted the body: %q", got)
	}
}

func TestBlackholeHoldsUntilClientGivesUp(t *testing.T) {
	in, err := Parse("blackhole")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(in.Wrap(okHandler()))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL, nil)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("blackholed request got a response (status %d)", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("blackholed request failed after %v, want ~the client deadline", elapsed)
	}
}

// TestInjectedErrorIsEnveloped: an error rule answers in the envelope every
// other non-2xx response uses, with the status's default code.
func TestInjectedErrorIsEnveloped(t *testing.T) {
	in, err := Parse("error=503")
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	in.Wrap(okHandler()).ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != mmlp.ContentTypeJSON {
		t.Fatalf("Content-Type %q", ct)
	}
	var env mmlp.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body %q is not the error envelope: %v", rec.Body.String(), err)
	}
	if env.Error.Code != mmlp.ErrCodeUnavailable || env.Error.Message != "injected fault (status 503)" {
		t.Fatalf("envelope %+v", env.Error)
	}
}

// TestReadmeSpellingsParse: every spec the README's fault-injection section
// shows — each table row and the example command — is one Parse accepts,
// and each action row is a rule.
func TestReadmeSpellingsParse(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "**Fault injection (`-fault-spec`).**")
	if !ok {
		t.Fatal("README has no fault-injection section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	modifiers := map[string]bool{"path": true, "rate": true, "seed": true}
	var specs []string
	for _, line := range strings.Split(section, "\n") {
		if row, ok := strings.CutPrefix(line, "| `"); ok {
			spec, _, _ := strings.Cut(row, "`")
			specs = append(specs, spec)
			in, err := Parse(spec)
			if err != nil {
				t.Errorf("table row %q: %v", spec, err)
				continue
			}
			key, _, _ := strings.Cut(spec, "=")
			if !modifiers[key] && (in == nil || len(in.rules) != 1) {
				t.Errorf("table row %q parses to no rule", spec)
			}
		}
		if _, cmd, ok := strings.Cut(line, "-fault-spec '"); ok {
			spec, _, _ := strings.Cut(cmd, "'")
			specs = append(specs, spec)
			if _, err := Parse(spec); err != nil {
				t.Errorf("example %q: %v", spec, err)
			}
		}
	}
	if len(specs) < 9 {
		t.Fatalf("found %d spellings %q: the README section changed shape", len(specs), specs)
	}
}
