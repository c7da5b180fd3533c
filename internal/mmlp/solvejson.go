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
// call encoding/json makes. Rows and terms are read by straight-line code
// whose first branch matches json.Marshal's compact bytes; any other byte
// sends a term back to its '{' to be read in that general grammar. An
// unsigned integral coefficient of at most 15 digits is exact in a
// float64, so it converts without the call and with the same bits.
// Anything else declines to encoding/json on a fresh zero value, so its
// value and error stand: null, an escape or a non-ASCII byte, an unknown,
// case-folded or repeated key, a row without its terms, a number an int
// field cannot hold, trailing data or any syntax error.
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
	// of its rows ends. Both are sized once from the body: the request, its
	// instance, every row and every term open with a '{', and each section
	// and every row's terms with a '['.
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
	braces, brackets := bytes.Count(d.data, []byte{'{'}), bytes.Count(d.data, []byte{'['})
	d.terms = make([]Term, 0, max(braces-brackets, 0))
	d.ends = make([]int, 0, max(brackets-1, 1))
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
	if !d.array(d.row) {
		return false
	}
	*dst = make([]R, len(d.ends)-1)
	for i := range *dst {
		lo, hi := d.ends[i], d.ends[i+1]
		(*dst)[i] = R(Constraint{Terms: d.terms[lo:hi:hi]})
	}
	return true
}

// row reads one row, {"terms":[…]}, appending its terms to the backing
// and its end to ends. json.Marshal's opening is matched byte for byte;
// any other opening is read in the general grammar, from the same '{'. A
// row has one key and a key appears at most once, so a row without terms
// declines: it decodes to nil, which ends cannot tell from [].
func (d *solveDecoder) row() bool {
	if len(d.data)-d.pos >= 10 && string(d.data[d.pos:d.pos+10]) == `{"terms":[` {
		d.pos += 10
	} else if seen := uint(0); !d.next('{') || d.member(rowKeys, &seen) < 0 || !d.next('[') {
		return false
	}
	if !d.next(']') {
		for {
			if !d.term() {
				return false
			}
			if !d.next(',') {
				if !d.next(']') {
					return false
				}
				break
			}
		}
	}
	d.ends = append(d.ends, len(d.terms))
	return d.next('}')
}

// term reads one term into the backing. json.Marshal's spelling,
// {"agent":…,"coef":…}, is matched byte for byte, with an unsigned agent
// of at most 18 digits; a coefficient that is not an unsigned integer of
// at most 15 digits takes float. On any other byte the term is read again
// from its '{' in the general grammar: whitespace between tokens, and
// either key in either order, at most once.
func (d *solveDecoder) term() bool {
	data, i := d.data, d.pos
	if len(data)-i >= 9 && string(data[i:i+9]) == `{"agent":` {
		agent, k := unsignedPrefix(data[i+9:], 18)
		if j := i + 9 + k; k > 0 && int64(int(agent)) == agent && len(data)-j >= 8 && string(data[j:j+8]) == `,"coef":` {
			t := Term{Agent: int(agent)}
			d.pos = j + 8
			n, k := unsignedPrefix(data[d.pos:], 15)
			ok := k > 0 && len(data)-d.pos > k && data[d.pos+k] == '}'
			if ok {
				t.Coef, d.pos = float64(n), d.pos+k
			} else {
				ok = d.float(&t.Coef) && d.pos < len(data) && data[d.pos] == '}'
			}
			if ok {
				d.pos++
				d.terms = append(d.terms, t)
				return true
			}
		}
	}
	d.pos = i
	var t Term
	if !d.next('{') {
		return false
	}
	if !d.next('}') {
		for seen := uint(0); ; {
			key := d.member(termKeys, &seen)
			if key < 0 || key == 0 && !d.int(&t.Agent) || key == 1 && !d.float(&t.Coef) {
				return false
			}
			if !d.next(',') {
				if !d.next('}') {
					return false
				}
				break
			}
		}
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
		key := d.member(keys, &seen)
		if key < 0 || !value(key) {
			return false
		}
		if !d.next(',') {
			return d.next('}')
		}
	}
}

// member reads one member's name and colon and returns the name's index
// in keys, marking it in seen; it returns -1 for a name outside keys or
// already in seen, or on a syntax error.
func (d *solveDecoder) member(keys []string, seen *uint) int {
	name, ok := d.str()
	if !ok || !d.next(':') {
		return -1
	}
	for i, k := range keys {
		if string(name) == k {
			if *seen&(1<<i) != 0 {
				return -1
			}
			*seen |= 1 << i
			return i
		}
	}
	return -1
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
// encoding/json makes, so the bits match. An unsigned integral literal of
// at most 15 digits is below 2^53, so float64 holds it exactly and that
// is ParseFloat's result; it converts without the call. Every other
// literal, -0 included, is parsed.
func (d *solveDecoder) float(dst *float64) bool {
	lit, _ := d.number()
	if lit == nil {
		return false
	}
	if n, k := unsignedPrefix(lit, 15); k == len(lit) {
		*dst = float64(n)
		return true
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

// unsignedPrefix reads the unsigned integer literal, 0 or [1-9][0-9]*, that
// b starts with, if it has at most max digits: its value and its length k,
// or k = 0 when b starts with no such literal. Up to 18 digits the value
// fits an int64, and up to 15 a float64 holds it exactly.
func unsignedPrefix(b []byte, max int) (n int64, k int) {
	for ; k < len(b) && '0' <= b[k] && b[k] <= '9'; k++ {
		if k == max || k == 1 && b[0] == '0' {
			return 0, 0
		}
		n = n*10 + int64(b[k]-'0')
	}
	return n, k
}
