// Package jsondec is the mirror of internal/jsonenc: the primitives the
// hand-written request decoders (the DecodeJSON methods of
// internal/server, internal/compare, internal/core and
// internal/workload) are written in.
//
// A Decoder reads a strict subset of JSON — the fast grammar — and
// never reports an error: at the first byte outside the grammar it
// declines, every later call returns a zero value, and the caller hands
// the whole input to encoding/json, which decides what the input means
// and words every rejection. Whatever the fast grammar accepts it reads
// exactly as encoding/json reads it into the same Go type, so the two
// are interchangeable on accepted input; the differential tests next to
// each decoder hold them together.
//
// The fast grammar is JSON with these forms left out:
//
//   - strings and member names holding a backslash escape, a control
//     byte or invalid UTF-8 (what remains is the string's own bytes, so
//     a decoded string is a substring of the input and costs nothing);
//   - null, as a value the caller reads (inside a Raw value it is text
//     like any other);
//   - for an integer target, any number with a fraction, an exponent or
//     more than 18 digits; for a float target, a literal strconv cannot
//     place in a float64;
//   - values nested deeper than maxDepth inside a Raw value.
//
// Member names are the caller's business: its switch matches them
// exactly, and it declines names it does not know (encoding/json folds
// case) and names it has seen (Once).
package jsondec

import (
	"strconv"
	"unicode/utf8"
)

// maxDepth bounds the nesting Raw validates itself; encoding/json's own
// limit is 10000.
const maxDepth = 64

// Decoder reads one JSON document of the fast grammar from a string.
type Decoder struct {
	src      string
	pos      int
	declined bool
}

// New returns a decoder positioned at the start of src.
func New(src string) Decoder { return Decoder{src: src} }

// OK reports whether everything read so far was inside the fast
// grammar. Zero values read after a decline mean nothing.
func (d *Decoder) OK() bool { return !d.declined }

// Decline leaves the fast grammar: the caller met something it does not
// read exactly as encoding/json would.
//
//mvlint:hotpath
func (d *Decoder) Decline() {
	d.declined = true
	d.pos = len(d.src)
}

// Once declines a member name seen before in its object; bit numbers
// the member in the caller's seen mask. encoding/json lets the last
// duplicate win, merging into what the first one left.
//
//mvlint:hotpath
func (d *Decoder) Once(seen *uint32, bit uint) {
	if *seen&(1<<bit) != 0 {
		d.Decline()
	}
	*seen |= 1 << bit
}

// space skips JSON whitespace and returns the byte after it, 0 at the
// end of input.
//
//mvlint:hotpath
func (d *Decoder) space() byte {
	for d.pos < len(d.src) {
		switch c := d.src[d.pos]; c {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// Peek returns the first byte of the next value without consuming it,
// 0 at the end of input.
//
//mvlint:hotpath
func (d *Decoder) Peek() byte { return d.space() }

// open consumes an opening bracket and reports whether the container
// has a first element; an empty container is consumed whole.
//
//mvlint:hotpath
func (d *Decoder) open(bracket, closing byte) bool {
	if d.space() != bracket {
		d.Decline()
		return false
	}
	d.pos++
	if d.space() == closing {
		d.pos++
		return false
	}
	return true
}

// Object opens an object and reports whether it has a first member.
// The loop is
//
//	for more := d.Object(); more; more = d.More('}') {
//		switch d.Key() { ... }
//	}
//
//mvlint:hotpath
func (d *Decoder) Object() bool { return d.open('{', '}') }

// Array opens an array and reports whether it has a first element; the
// loop is Object's with More(']').
//
//mvlint:hotpath
func (d *Decoder) Array() bool { return d.open('[', ']') }

// More follows a member or element: a comma means another one comes,
// the closing bracket ends the container, anything else declines.
//
//mvlint:hotpath
func (d *Decoder) More(closing byte) bool {
	switch c := d.space(); {
	case c == ',':
		d.pos++
		return true
	case c == closing && c != 0:
		d.pos++
		return false
	}
	d.Decline()
	return false
}

// Key reads a member name and its colon.
//
//mvlint:hotpath
func (d *Decoder) Key() string {
	k := d.String()
	if d.space() != ':' {
		d.Decline()
		return ""
	}
	d.pos++
	return k
}

// String reads a string that is its own bytes: no escapes, no control
// bytes, valid UTF-8. The result is a substring of the input.
//
//mvlint:hotpath
func (d *Decoder) String() string {
	if d.space() != '"' {
		d.Decline()
		return ""
	}
	start := d.pos + 1
	ascii := true
	for i := start; i < len(d.src); i++ {
		switch c := d.src[i]; {
		case c == '"':
			s := d.src[start:i]
			if !ascii && !utf8.ValidString(s) {
				d.Decline()
				return ""
			}
			d.pos = i + 1
			return s
		case c == '\\' || c < 0x20:
			d.Decline()
			return ""
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.Decline()
	return ""
}

// number reads a literal of JSON's number grammar and reports whether
// it is a plain integer (no fraction, no exponent).
//
//mvlint:hotpath
func (d *Decoder) number() (lit string, integer bool) {
	d.space()
	s, i := d.src, d.pos
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && s[i] >= '1' && s[i] <= '9':
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
	default:
		d.Decline()
		return "", false
	}
	integer = true
	if i < len(s) && s[i] == '.' {
		integer = false
		i++
		if i == len(s) || s[i] < '0' || s[i] > '9' {
			d.Decline()
			return "", false
		}
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		integer = false
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i == len(s) || s[i] < '0' || s[i] > '9' {
			d.Decline()
			return "", false
		}
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
	}
	lit = s[d.pos:i]
	d.pos = i
	return lit, integer
}

// Int64 reads an integer of at most 18 digits, which no int64 can
// overflow.
//
//mvlint:hotpath
func (d *Decoder) Int64() int64 {
	lit, integer := d.number()
	neg := len(lit) > 0 && lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if !integer || len(lit) > 18 {
		d.Decline()
		return 0
	}
	var n int64
	for i := 0; i < len(lit); i++ {
		n = n*10 + int64(lit[i]-'0')
	}
	if neg {
		n = -n
	}
	return n
}

// Int reads an integer that fits an int.
//
//mvlint:hotpath
func (d *Decoder) Int() int {
	n := d.Int64()
	if int64(int(n)) != n {
		d.Decline()
		return 0
	}
	return int(n)
}

// Float reads a number as encoding/json does into a float64: the
// literal through strconv.ParseFloat, declined when out of range.
//
//mvlint:hotpath
func (d *Decoder) Float() float64 {
	lit, _ := d.number()
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		d.Decline()
		return 0
	}
	return f
}

// Strings reads an array of strings; an empty array reads as an empty,
// non-nil slice, as encoding/json reads it.
//
//mvlint:hotpath
func (d *Decoder) Strings() []string {
	out := make([]string, 0, 2)
	for more := d.Array(); more; more = d.More(']') {
		out = append(out, d.String())
	}
	return out
}

// Ints reads an array of integers; see Strings.
//
//mvlint:hotpath
func (d *Decoder) Ints() []int {
	out := make([]int, 0, 2)
	for more := d.Array(); more; more = d.More(']') {
		out = append(out, d.Int())
	}
	return out
}

// Raw reads any one value — checking all of JSON's syntax, escapes
// included, but nothing of its meaning — and returns its text, as
// encoding/json fills a json.RawMessage.
//
//mvlint:hotpath
func (d *Decoder) Raw() string {
	d.space()
	start := d.pos
	d.skip(0)
	if d.declined {
		return ""
	}
	return d.src[start:d.pos]
}

// skip consumes one value of full JSON syntax.
//
//mvlint:hotpath
func (d *Decoder) skip(depth int) {
	if depth > maxDepth {
		d.Decline()
		return
	}
	switch c := d.space(); {
	case c == '{':
		for more := d.Object(); more; more = d.More('}') {
			d.skipString()
			if d.space() != ':' {
				d.Decline()
				return
			}
			d.pos++
			d.skip(depth + 1)
		}
	case c == '[':
		for more := d.Array(); more; more = d.More(']') {
			d.skip(depth + 1)
		}
	case c == '"':
		d.skipString()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	default:
		d.number()
	}
}

//mvlint:hotpath
func (d *Decoder) literal(word string) {
	if len(d.src)-d.pos < len(word) || d.src[d.pos:d.pos+len(word)] != word {
		d.Decline()
		return
	}
	d.pos += len(word)
}

// skipString consumes a string of full JSON syntax: any escape
// encoding/json's scanner accepts, no raw control byte. Like that
// scanner it does not look at UTF-8.
//
//mvlint:hotpath
func (d *Decoder) skipString() {
	if d.space() != '"' {
		d.Decline()
		return
	}
	s := d.src
	for i := d.pos + 1; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			d.pos = i + 1
			return
		case c < 0x20:
			d.Decline()
			return
		case c == '\\':
			i++
			if i == len(s) {
				d.Decline()
				return
			}
			switch s[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(s)-i <= 4 || !isHex(s[i+1]) || !isHex(s[i+2]) || !isHex(s[i+3]) || !isHex(s[i+4]) {
					d.Decline()
					return
				}
				i += 4
			default:
				d.Decline()
				return
			}
		}
	}
	d.Decline()
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// End declines unless only whitespace is left: encoding/json rejects a
// document with anything after its one value.
//
//mvlint:hotpath
func (d *Decoder) End() {
	if d.space() != 0 || d.pos != len(d.src) {
		d.Decline()
	}
}
