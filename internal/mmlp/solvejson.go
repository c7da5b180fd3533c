package mmlp

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// UnmarshalSolveRequest decodes a JSON /v1/solve body into req and returns
// exactly the value and error json.Unmarshal(data, req) gives on a zero
// req; whatever req held before is discarded.
//
// The spelling json.Marshal produces takes a schema scanner that reads
// every term into one flat backing, carved per row: one object whose keys
// are among SolveRequest's tags, an instance of num_agents, constraints
// and objectives, rows {"terms":[…]} and terms {"agent":…,"coef":…}, keys
// in any order, JSON whitespace, strings of printable ASCII without
// escapes, and RFC 8259 numbers, a float parsed by the strconv.ParseFloat
// call encoding/json makes. Anything else declines to encoding/json on a
// fresh zero value, so its value and error stand: null, an escape or a
// non-ASCII byte, an unknown, case-folded or repeated key, a row without
// its terms, a number an int field cannot hold, trailing data or any
// syntax error.
//
// Memory is proportional to len(data), never to a count the body
// declares; num_agents is for SolveRequest.Options to cap.
func UnmarshalSolveRequest(data []byte, req *SolveRequest) error {
	*req = SolveRequest{}
	d := solveDecoder{data: data}
	if d.request(req) {
		return nil
	}
	*req = SolveRequest{}
	return json.Unmarshal(data, req)
}

// The member names each object of the fast spelling may carry, in the
// order its reader's switch numbers them.
var (
	requestKeys  = []string{"instance", "engine", "r", "bin_iters", "disable_special_cases", "self_check"}
	instanceKeys = []string{"num_agents", "constraints", "objectives"}
	rowKeys      = []string{"terms"}
	termKeys     = []string{"agent", "coef"}
)

// solveDecoder is one pass of UnmarshalSolveRequest's scanner. Every
// reader returns false to decline, with the cursor left wherever it
// stopped.
type solveDecoder struct {
	data []byte
	pos  int
	// terms is the backing every row's terms are carved from; ends holds
	// the offsets in it where the section being read starts and where each
	// of its rows ends. Both are sized once from the body: every term and
	// every row opens with a '{'.
	terms []Term
	ends  []int
}

func (d *solveDecoder) request(req *SolveRequest) bool {
	ok := d.object(requestKeys, func(key int) bool {
		switch key {
		case 0:
			req.Instance = new(Instance)
			return d.instance(req.Instance)
		case 1:
			s, ok := d.str()
			req.Engine = string(s)
			return ok
		case 2:
			return d.int(&req.R)
		case 3:
			return d.int(&req.BinIters)
		case 4:
			return d.bool(&req.DisableSpecialCases)
		default:
			return d.bool(&req.SelfCheck)
		}
	})
	d.space()
	return ok && d.pos == len(d.data)
}

func (d *solveDecoder) instance(in *Instance) bool {
	braces := bytes.Count(d.data, []byte{'{'})
	d.terms = make([]Term, 0, braces)
	d.ends = make([]int, 0, braces)
	return d.object(instanceKeys, func(key int) bool {
		switch key {
		case 0:
			return d.int(&in.NumAgents)
		case 1:
			return section(d, &in.Cons)
		default:
			return section(d, &in.Objs)
		}
	})
}

// section reads one section's array of rows into dst, each row's terms
// carved out of the term backing with its capacity cut to its length.
func section[R Row](d *solveDecoder, dst *[]R) bool {
	d.ends = append(d.ends[:0], len(d.terms))
	if !d.array(func() bool {
		has := false
		if !d.object(rowKeys, func(int) bool {
			has = true
			return d.array(d.term)
		}) || !has {
			return false // a row without terms decodes to nil, which ends cannot tell from []
		}
		d.ends = append(d.ends, len(d.terms))
		return true
	}) {
		return false
	}
	*dst = make([]R, len(d.ends)-1)
	for i := range *dst {
		lo, hi := d.ends[i], d.ends[i+1]
		(*dst)[i] = R(Constraint{Terms: d.terms[lo:hi:hi]})
	}
	return true
}

func (d *solveDecoder) term() bool {
	var t Term
	if !d.object(termKeys, func(key int) bool {
		if key == 0 {
			return d.int(&t.Agent)
		}
		return d.float(&t.Coef)
	}) {
		return false
	}
	d.terms = append(d.terms, t)
	return true
}

// object reads one object whose keys are all in keys, each at most once,
// calling value with a key's index when the cursor stands at its value.
func (d *solveDecoder) object(keys []string, value func(key int) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	var seen uint
	for {
		name, ok := d.str()
		if !ok || !d.next(':') {
			return false
		}
		key := -1
		for i, k := range keys {
			if string(name) == k {
				key = i
				break
			}
		}
		if key < 0 || seen&(1<<key) != 0 || !value(key) {
			return false
		}
		seen |= 1 << key
		if !d.next(',') {
			return d.next('}')
		}
	}
}

// array reads one array, calling elem when the cursor stands at each
// element.
func (d *solveDecoder) array(elem func() bool) bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.next(',') {
			return d.next(']')
		}
	}
}

// space skips JSON whitespace.
func (d *solveDecoder) space() {
	for ; d.pos < len(d.data); d.pos++ {
		if c := d.data[d.pos]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
	}
}

// next consumes c, after any whitespace, if it is the next byte.
func (d *solveDecoder) next(c byte) bool {
	d.space()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// str reads a string of printable ASCII without escapes and returns the
// bytes between its quotes.
func (d *solveDecoder) str() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	for i := d.pos; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[d.pos:i]
			d.pos = i + 1
			return s, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (d *solveDecoder) bool(dst *bool) bool {
	d.space()
	rest := d.data[d.pos:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		d.pos += 4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		d.pos += 5
	default:
		return false
	}
	return true
}

// int reads an integer literal, as encoding/json does into an int: base
// 10, with no fraction or exponent and within the int range.
func (d *solveDecoder) int(dst *int) bool {
	lit, integral := d.number()
	if lit == nil || !integral {
		return false
	}
	neg := lit[0] == '-'
	digits := lit
	if neg {
		digits = lit[1:]
	}
	var n int64
	if len(digits) > 18 { // past 18 digits an int64 can overflow
		var err error
		if n, err = strconv.ParseInt(string(lit), 10, 64); err != nil {
			return false
		}
	} else {
		for _, c := range digits {
			n = n*10 + int64(c-'0')
		}
		if neg {
			n = -n
		}
	}
	if int64(int(n)) != n {
		return false
	}
	*dst = int(n)
	return true
}

// float reads a number literal with the strconv.ParseFloat call
// encoding/json makes, so the bits match.
func (d *solveDecoder) float(dst *float64) bool {
	lit, _ := d.number()
	if lit == nil {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	*dst = f
	return true
}

// number reads a literal of RFC 8259's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether it
// has neither fraction nor exponent; lit is nil for anything else.
func (d *solveDecoder) number() (lit []byte, integral bool) {
	d.space()
	start, i := d.pos, d.pos
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	switch {
	case i < len(d.data) && d.data[i] == '0':
		i++
	case i < len(d.data) && '1' <= d.data[i] && d.data[i] <= '9':
		i = d.digits(i)
	default:
		return nil, false
	}
	integral = true
	if i < len(d.data) && d.data[i] == '.' {
		if i = d.digits(i + 1); i < 0 {
			return nil, false
		}
		integral = false
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if i = d.digits(i); i < 0 {
			return nil, false
		}
		integral = false
	}
	d.pos = i
	return d.data[start:i], integral
}

// digits returns the index past the run of decimal digits starting at i,
// or -1 when there is none.
func (d *solveDecoder) digits(i int) int {
	j := i
	for j < len(d.data) && '0' <= d.data[j] && d.data[j] <= '9' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}
