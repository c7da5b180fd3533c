// Package fault is a deterministic fault-injection layer for chaos
// testing the serving fleet. An Injector is parsed from a compact
// scenario spec and wraps a shard's http.Handler, injecting latency,
// error statuses, blackholes, slow response bodies, and mid-stream
// truncation. All
// randomness comes from a single seeded source, so a given spec replays
// the same fault sequence on every run. The zero Injector (nil, or a
// spec with no rules) wraps to the original handler untouched, so the
// layer costs nothing when disabled.
package fault

import (
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httperr"
)

// Rule is one parsed fault clause: which requests it matches (path
// prefix + probability) and what it does to them. At most one action
// fires per request — the first matching rule wins.
type Rule struct {
	// Path is a request-path prefix; empty matches every path.
	Path string
	// Rate is the match probability in (0, 1]; 1 means always.
	Rate float64

	// Latency is added before the request is handled.
	Latency time.Duration
	// ErrorCode, when non-zero, short-circuits the request with this
	// HTTP status (after Latency, if any).
	ErrorCode int
	// Blackhole holds the request open without responding until the
	// client gives up, then aborts the connection.
	Blackhole bool
	// Slow delays every response-body write by this much.
	Slow time.Duration
	// Truncate cuts the response body after this many bytes and aborts
	// the connection mid-stream (the NDJSON-truncation fault).
	Truncate int
}

// Injector applies parsed rules to requests. Safe for concurrent use.
type Injector struct {
	rules []Rule

	mu  sync.Mutex // guards rng: rand.Rand is not goroutine-safe
	rng *rand.Rand

	injected atomic.Int64
}

// Parse builds an Injector from a scenario spec. Grammar: rules are
// separated by ';', fields within a rule by spaces, each field is
// key=value (or a bare flag):
//
//	latency=800ms                     add 800ms to every request
//	path=/v1/ latency=800ms           ... only under /v1/
//	error=503 rate=0.2                fail 20% of requests with 503
//	blackhole path=/v1/solve          hold solves open forever
//	slow=5ms path=/v1/batch           drip the batch stream
//	truncate=2048 path=/v1/batch      cut the stream after 2 KiB
//	seed=7                            seed the shared RNG (default 1)
//
// Each rule must carry exactly one action (latency, error, blackhole,
// slow, truncate); path, rate and seed are modifiers. An empty spec
// yields a nil Injector, which is valid and injects nothing.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := &Injector{}
	seed := int64(1)
	for _, clause := range strings.Split(spec, ";") {
		fields := strings.Fields(clause)
		if len(fields) == 0 {
			continue
		}
		r := Rule{Rate: 1}
		actions := 0
		for _, f := range fields {
			key, val, hasVal := strings.Cut(f, "=")
			var err error
			switch key {
			case "path":
				r.Path = val
			case "rate":
				r.Rate, err = strconv.ParseFloat(val, 64)
				if err == nil && (r.Rate <= 0 || r.Rate > 1) {
					err = fmt.Errorf("rate %v outside (0, 1]", r.Rate)
				}
			case "seed":
				seed, err = strconv.ParseInt(val, 10, 64)
			case "latency":
				r.Latency, err = time.ParseDuration(val)
				actions++
			case "error":
				r.ErrorCode, err = strconv.Atoi(val)
				if err == nil && (r.ErrorCode < 100 || r.ErrorCode > 599) {
					err = fmt.Errorf("status %d outside 100..599", r.ErrorCode)
				}
				actions++
			case "blackhole":
				if hasVal {
					err = fmt.Errorf("blackhole takes no value")
				}
				r.Blackhole = true
				actions++
			case "slow":
				r.Slow, err = time.ParseDuration(val)
				actions++
			case "truncate":
				r.Truncate, err = strconv.Atoi(val)
				if err == nil && r.Truncate < 0 {
					err = fmt.Errorf("truncate %d is negative", r.Truncate)
				}
				actions++
			default:
				err = fmt.Errorf("unknown field")
			}
			if err != nil {
				return nil, fmt.Errorf("fault: bad field %q in rule %q: %v", f, strings.TrimSpace(clause), err)
			}
		}
		if actions == 0 {
			// A clause of pure modifiers (e.g. a lone "seed=7") is a
			// directive, not a rule.
			continue
		}
		if actions > 1 {
			return nil, fmt.Errorf("fault: rule %q has %d actions, want exactly one", strings.TrimSpace(clause), actions)
		}
		in.rules = append(in.rules, r)
	}
	if len(in.rules) == 0 {
		return nil, nil
	}
	in.rng = rand.New(rand.NewSource(seed))
	return in, nil
}

// Count reports how many faults have fired. Zero on a nil Injector.
func (in *Injector) Count() int64 {
	if in == nil {
		return 0
	}
	return in.injected.Load()
}

// match returns the first rule matching path whose rate roll passes,
// or nil. Rolls consume the shared deterministic RNG in rule order.
func (in *Injector) match(path string) *Rule {
	for i := range in.rules {
		r := &in.rules[i]
		if r.Path != "" && !strings.HasPrefix(path, r.Path) {
			continue
		}
		if r.Rate < 1 {
			in.mu.Lock()
			roll := in.rng.Float64()
			in.mu.Unlock()
			if roll >= r.Rate {
				continue
			}
		}
		return r
	}
	return nil
}

// Wrap returns a handler that applies the injector's rules before (and
// during) next. A nil or empty Injector returns next unchanged — the
// disabled path adds zero indirection.
func (in *Injector) Wrap(next http.Handler) http.Handler {
	if in == nil || len(in.rules) == 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rule := in.match(r.URL.Path)
		if rule == nil {
			next.ServeHTTP(w, r)
			return
		}
		in.injected.Add(1)
		if rule.Latency > 0 {
			select {
			case <-time.After(rule.Latency):
			case <-r.Context().Done():
				panic(http.ErrAbortHandler)
			}
		}
		switch {
		case rule.Blackhole:
			<-r.Context().Done()
			panic(http.ErrAbortHandler)
		case rule.ErrorCode != 0:
			httperr.Write(w, rule.ErrorCode, httperr.CodeForStatus(rule.ErrorCode), fmt.Errorf("injected fault (status %d)", rule.ErrorCode))
		case rule.Slow > 0 || rule.Truncate > 0:
			next.ServeHTTP(&faultWriter{ResponseWriter: w, slow: rule.Slow, truncate: rule.Truncate, limited: rule.Truncate > 0}, r)
		default:
			// Pure-latency rule: the delay already happened.
			next.ServeHTTP(w, r)
		}
	})
}

// faultWriter is a ResponseWriter that drips and/or truncates the body.
// It forwards Flush so streaming handlers keep streaming.
type faultWriter struct {
	http.ResponseWriter
	slow     time.Duration
	truncate int // remaining byte allowance when limited
	limited  bool
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	if fw.slow > 0 {
		time.Sleep(fw.slow)
	}
	if !fw.limited {
		return fw.ResponseWriter.Write(p)
	}
	if fw.truncate <= 0 {
		// Allowance exhausted: kill the connection mid-stream. The
		// panic is http's sanctioned abort — the server drops the
		// connection without a graceful close, so the client sees a
		// truncated body, exactly the partial-failure being simulated.
		panic(http.ErrAbortHandler)
	}
	if len(p) > fw.truncate {
		fw.ResponseWriter.Write(p[:fw.truncate])
		fw.truncate = 0
		panic(http.ErrAbortHandler)
	}
	fw.truncate -= len(p)
	return fw.ResponseWriter.Write(p)
}

func (fw *faultWriter) Flush() {
	if f, ok := fw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
