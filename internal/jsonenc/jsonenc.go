// Package jsonenc holds the append-only JSON primitives the wire
// writers are written in: each served body's one writer, which reads
// the solved value (Comparison.AppendJSON and Sweep.AppendJSON in
// internal/compare, the advise body's in internal/server, over
// Recommendation.AppendWire and ParetoPoint.AppendWire in
// internal/core), and the request structs' key encoders. Each primitive
// reproduces encoding/json's output byte for byte — string escaping
// with HTML safety on, the float format, null for nil slices — so a
// writer's bytes are the ones encoding/json's reflection writes for the
// wire struct; the tests in this package and the differential tests
// next to each writer hold the two together.
package jsonenc

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// escape classifies every byte as encoding/json does with HTML escaping
// on: 0 for an ASCII byte that stands for itself inside a string (its
// htmlSafeSet), 'u' for one written \u00XX (the other control bytes,
// and < > &), the letter of its two-byte escape otherwise, and multi
// for the bytes of a multi-byte sequence, which is decoded to tell.
var escape = func() (t [256]byte) {
	for b := 0; b < 0x20; b++ {
		t[b] = 'u'
	}
	t['<'], t['>'], t['&'] = 'u', 'u', 'u'
	t['"'], t['\\'] = '"', '\\'
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = 'b', 'f', 'n', 'r', 't'
	for b := utf8.RuneSelf; b < len(t); b++ {
		t[b] = multi
	}
	return t
}()

const multi = 0xff

// AppendString appends s as a JSON string literal, escaped exactly as
// encoding/json does with HTML escaping on: \" \\ \b \f \n \r \t,
// \u00XX for the other control bytes and for < > &, \u2028 and \u2029,
// and \ufffd for each byte of invalid UTF-8.
//
//mvlint:hotpath
func AppendString[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	dst = appendEscaped(dst, s)
	return append(dst, '"')
}

// appendEscaped appends s with the escapes applied and no quotes.
//
//mvlint:hotpath
func appendEscaped[S ~string | ~[]byte](dst []byte, s S) []byte {
	start := 0 // s[start:i] is plain text not yet copied
	for i := 0; i < len(s); {
		e := escape[s[i]]
		if e == 0 {
			i++
			continue
		}
		size := 1
		if e == multi {
			var r rune
			r, size = decodeRune(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(dst, s[start:i]...)
				dst = append(dst, `\ufffd`...)
			case r == '\u2028' || r == '\u2029':
				dst = append(dst, s[start:i]...)
				dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
			default:
				i += size
				continue
			}
		} else {
			dst = append(dst, s[start:i]...)
			if e == 'u' {
				dst = append(dst, '\\', 'u', '0', '0', hex[s[i]>>4], hex[s[i]&0xf])
			} else {
				dst = append(dst, '\\', e)
			}
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// Measure reads s once and returns its width in runes, as
// utf8.RuneCount counts them (a byte of invalid UTF-8 is one), and
// whether it is plain: AppendString writes it between its quotes
// unchanged, because it holds no byte that is escaped, no invalid UTF-8
// and no U+2028 or U+2029. A report renderer measures each cell with it
// and copies a plain one through either sink.
//
//mvlint:hotpath
func Measure[S ~string | ~[]byte](s S) (width int, plain bool) {
	plain = true
	for i := 0; i < len(s); width++ {
		switch escape[s[i]] {
		case 0:
			i++
		case multi:
			r, size := decodeRune(s[i:])
			if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
				plain = false
			}
			i += size
		default:
			plain = false
			i++
		}
	}
	return width, plain
}

func decodeRune[S ~string | ~[]byte](s S) (rune, int) {
	// Convert at most one rune's worth of bytes, so that for a []byte
	// the string is a stack temporary (as encoding/json does).
	if len(s) > utf8.UTFMax {
		s = s[:utf8.UTFMax]
	}
	return utf8.DecodeRuneInString(string(s))
}

// AppendStrings appends a JSON array of strings, null for a nil slice.
//
//mvlint:hotpath
func AppendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, s)
	}
	return append(dst, ']')
}

// AppendInts appends a JSON array of integers, null for a nil slice.
//
//mvlint:hotpath
func AppendInts(dst []byte, xs []int) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// AppendCompact appends the valid JSON text src as encoding/json
// writes a json.RawMessage into its output: insignificant whitespace
// dropped, and < > & U+2028 U+2029 — which valid JSON holds only
// inside strings — written as \u escapes.
//
//mvlint:hotpath
func AppendCompact(dst, src []byte) []byte {
	inString := false
	start := 0 // src[start:i] is text not yet copied
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == '<' || c == '>' || c == '&':
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			start = i + 1
		case c == 0xE2 && i+2 < len(src) && src[i+1] == 0x80 && src[i+2]&^1 == 0xA8:
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[src[i+2]&0xf])
			i += 2
			start = i + 1
		case inString:
			if c == '\\' {
				i++
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			dst = append(dst, src[start:i]...)
			start = i + 1
		}
	}
	return append(dst, src[start:]...)
}

// EndObject closes the object whose members were appended from
// dst[mark:] on, each with a leading comma: the first comma becomes
// the opening brace, so omitempty members need no "first" flag.
//
//mvlint:hotpath
func EndObject(dst []byte, mark int) []byte {
	if len(dst) == mark {
		return append(dst, '{', '}')
	}
	dst[mark] = '{'
	return append(dst, '}')
}

// AppendArray appends a JSON array of wire structs, each through its own
// encoder; null for a nil slice.
//
//mvlint:hotpath
func AppendArray[T interface {
	AppendJSON([]byte) ([]byte, error)
}](dst []byte, xs []T) ([]byte, error) {
	if xs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = xs[i].AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// AppendFloat appends f in encoding/json's float64 format: the shortest
// decimal that round-trips, exponent form below 1e-6 and from 1e21 up,
// a two-digit exponent's leading zero dropped (1e-07 → 1e-7). NaN and
// the infinities have no JSON form and return encoding/json's own
// *json.UnsupportedValueError with nothing appended.
//
//mvlint:hotpath
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
