package mmlp

import (
	"encoding/json"
	"maps"
	"math"
	"slices"
	"strconv"
)

// Answer is the set of JSON answer shapes AppendAnswer writes without
// reflection: a /v1/solve body, a /v1/delta body and a /v1/batch line.
type Answer interface {
	SolveResponse | DeltaResponse | BatchItem
}

// AppendAnswer appends to dst exactly the bytes json.NewEncoder(w).Encode(v)
// writes for v, trailing newline included, and returns Encode's error; on
// an error dst comes back unchanged.
//
// A schema encoder writes every answer inside its grammar: fields in
// struct order under their tags' omitempty (a BatchItem's index and error
// come before its embedded SolveResponse's fields), floats formatted as
// encoding/json formats them, trace keys sorted, and strings copied as
// they are when every byte is printable ASCII other than '"', '\\', '<',
// '>' and '&'. Anything else — a NaN or ±Inf, or a string encoding/json
// would escape — declines to json.Marshal on a copy of v, whose bytes and
// error stand.
//
// An x entry whose bits equal the previous entry's copies that entry's
// bytes instead of being formatted again. base, when non-nil, is an
// earlier answer's x encoded once (EncodeX): every entry of v's x whose
// bits equal base's entry at the same position is copied from base's
// bytes. A base of another length is ignored.
func AppendAnswer[T Answer](dst []byte, v *T, base *EncodedX) ([]byte, error) {
	if out, ok := appendAnswer(dst, v, base); ok {
		return out, nil
	}
	c := *v // only the copy reaches encoding/json, so v stays on its caller's stack
	b, err := json.Marshal(&c)
	if err != nil {
		return dst, err
	}
	return append(append(dst, b...), '\n'), nil
}

// appendAnswer is AppendAnswer's schema encoder; ok is false when v leaves
// its grammar, and the bytes past len(dst) are then garbage.
func appendAnswer(dst []byte, v any, base *EncodedX) ([]byte, bool) {
	w := answerWriter{b: dst, ok: true}
	switch a := v.(type) {
	case *SolveResponse:
		w.raw(`{`)
		w.solveFields(a, base)
	case *DeltaResponse:
		w.raw(`{"status":`)
		w.str(a.Status)
		w.x(a.X, base)
		w.raw(`,"utility":`)
		w.float(a.Utility)
		w.raw(`,"upper_bound":`)
		w.float(a.UpperBound)
		w.raw(`,"key":`)
		w.str(a.Key)
		w.raw(`,"dirty_agents":`)
		w.int(a.DirtyAgents)
		w.raw(`,"total_agents":`)
		w.int(a.TotalAgents)
		w.flag(`,"spliced":true`, a.Spliced)
		w.flag(`,"cached":true`, a.Cached)
		w.raw(`,"latency_ms":`)
		w.float(a.LatencyMS)
		w.trace(a.Trace)
	case *BatchItem:
		w.raw(`{"index":`)
		w.int(a.Index)
		if a.Error != "" {
			w.raw(`,"error":`)
			w.str(a.Error)
		}
		w.raw(`,`)
		w.solveFields(&a.SolveResponse, base)
	default:
		return dst, false
	}
	w.raw("}\n")
	return w.b, w.ok
}

// answerWriter appends one answer; ok turns false at the first value
// outside the grammar, and every later append is then wasted but
// harmless.
type answerWriter struct {
	b  []byte
	ok bool
	// last is the length of the x entry that ends b, which entry copies
	// when the next entry repeats its bits.
	last int
}

// solveFields writes SolveResponse's fields, the first without a leading
// comma.
func (w *answerWriter) solveFields(r *SolveResponse, base *EncodedX) {
	w.raw(`"status":`)
	w.str(r.Status)
	w.x(r.X, base)
	w.raw(`,"utility":`)
	w.float(r.Utility)
	w.raw(`,"upper_bound":`)
	w.float(r.UpperBound)
	w.omitInt(`,"rounds":`, r.Rounds)
	w.omitInt(`,"messages":`, r.Messages)
	w.omitInt(`,"bytes":`, r.Bytes)
	w.raw(`,"latency_ms":`)
	w.float(r.LatencyMS)
	w.flag(`,"cached":true`, r.Cached)
	w.trace(r.Trace)
}

func (w *answerWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *answerWriter) int(n int) { w.b = strconv.AppendInt(w.b, int64(n), 10) }

func (w *answerWriter) omitInt(key string, n int) {
	if n != 0 {
		w.raw(key)
		w.int(n)
	}
}

func (w *answerWriter) flag(field string, set bool) {
	if set {
		w.raw(field)
	}
}

func (w *answerWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.ok = false
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

func (w *answerWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.ok = false
		return
	}
	w.b = appendFloat(w.b, f)
}

// appendFloat formats a finite float as encoding/json does: ES6 number
// formatting, the shortest decimal that round-trips, in exponent form
// outside [1e-6, 1e21) with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// x writes the "x" field unless x is empty, splicing from base where it
// can.
func (w *answerWriter) x(x []float64, base *EncodedX) {
	if len(x) == 0 {
		return
	}
	w.raw(`,"x":[`)
	if base != nil && len(base.x) == len(x) {
		w.splice(x, base)
	} else {
		for i := range x {
			w.entry(x, i)
		}
	}
	w.raw(`]`)
}

// entry writes x[i], after a comma unless i is 0, right after x[i-1]'s
// bytes. An entry whose bits equal x[i-1]'s copies those bytes; any other
// entry is formatted, so −0 next to +0 is.
func (w *answerWriter) entry(x []float64, i int) {
	if i > 0 {
		w.b = append(w.b, ',')
		if math.Float64bits(x[i]) == math.Float64bits(x[i-1]) {
			end := len(w.b) - 1
			w.b = append(w.b, w.b[end-w.last:end]...)
			return
		}
	}
	start := len(w.b)
	w.float(x[i])
	w.last = len(w.b) - start
}

// splice writes x's entries, copying each run whose bits equal base's
// from base's bytes and writing the entries between runs with entry.
func (w *answerWriter) splice(x []float64, base *EncodedX) {
	lo := 0 // the first entry of the pending run
	for i, v := range x {
		if math.Float64bits(v) == math.Float64bits(base.x[i]) {
			continue
		}
		if lo < i {
			w.b = base.appendRun(w.b, lo, i)
			w.last = base.entryLen(i - 1)
		}
		w.entry(x, i)
		lo = i + 1
	}
	w.b = base.appendRun(w.b, lo, len(x))
}

// trace writes the "trace" field unless the map is empty, keys sorted as
// encoding/json sorts them.
func (w *answerWriter) trace(m map[string]float64) {
	if len(m) == 0 {
		return
	}
	w.raw(`,"trace":{`)
	for i, k := range slices.Sorted(maps.Keys(m)) {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.str(k)
		w.b = append(w.b, ':')
		w.float(m[k])
	}
	w.raw(`}`)
}

// EncodedX is an answer's x with the bytes encoding/json writes for each
// entry. Built once per stored answer, it lets a later answer whose x
// keeps most of those bits — a delta's, against its base — copy their
// bytes instead of formatting them (AppendAnswer's base).
type EncodedX struct {
	x    []float64 // the encoded entries, shared read-only with their answer
	buf  []byte    // the entries' encodings, comma-separated
	ends []int32   // ends[i] is the offset in buf just past entry i
}

// EncodeX encodes x for splicing; x must not change afterwards. It returns
// nil when an entry is outside the schema encoder's grammar (a NaN or
// ±Inf) or the encoding outgrows its int32 offsets.
func EncodeX(x []float64) *EncodedX {
	w := answerWriter{b: make([]byte, 0, 20*len(x)), ok: true}
	ends := make([]int32, len(x))
	for i := range x {
		w.entry(x, i)
		if !w.ok || len(w.b) > math.MaxInt32 {
			return nil
		}
		ends[i] = int32(len(w.b))
	}
	return &EncodedX{x: x, buf: w.b, ends: ends}
}

// Bytes estimates the memo's heap footprint for cache accounting; x is
// its answer's and is not counted.
func (m *EncodedX) Bytes() int64 {
	if m == nil {
		return 0
	}
	return 64 + int64(cap(m.buf)) + 4*int64(cap(m.ends))
}

// entryLen is the length of entry i's encoding.
func (m *EncodedX) entryLen(i int) int {
	if i == 0 {
		return int(m.ends[0])
	}
	return int(m.ends[i]-m.ends[i-1]) - 1 // less the separating comma
}

// appendRun appends the encodings of entries [lo, hi), preceded by the
// comma that separates entry lo from its predecessor unless lo is 0.
func (m *EncodedX) appendRun(b []byte, lo, hi int) []byte {
	if lo >= hi {
		return b
	}
	start := 0
	if lo > 0 {
		start = int(m.ends[lo-1]) // the separating comma
	}
	return append(b, m.buf[start:m.ends[hi-1]]...)
}
