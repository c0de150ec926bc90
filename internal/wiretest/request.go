package wiretest

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
)

// The request side: seeded spellings of a request body for the tests of
// the hand-written decoders (the DecodeJSON methods and
// internal/jsondec) to read beside encoding/json. Respell stays inside
// what a careful client sends and the decoders must accept; Hostile
// leaves it, one step at a time, and the decoders must decline or agree
// with encoding/json — never differ from it.

// Member is one member of a request body: a name and its value's JSON
// text.
type Member struct{ Name, Value string }

// Respell returns a body that means what body, a JSON object, means and
// is spelled differently: members in a random order, random whitespace
// wherever JSON allows it, and each of defaults that body does not
// already name written out with probability one half.
func Respell(rng *rand.Rand, body []byte, defaults ...Member) []byte {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(body, &obj); err != nil {
		panic(fmt.Sprintf("wiretest.Respell: %v: %s", err, body))
	}
	members := make([]Member, 0, len(obj)+len(defaults))
	for name, val := range obj {
		members = append(members, Member{name, string(val)})
	}
	// Map order is random on its own terms; the spelling must be the
	// seed's.
	sort.Slice(members, func(i, j int) bool { return members[i].Name < members[j].Name })
	for _, d := range defaults {
		if _, ok := obj[d.Name]; !ok && rng.Intn(2) == 0 {
			members = append(members, d)
		}
	}
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, m := range members {
		if i > 0 {
			sb.WriteByte(',')
		}
		name, _ := json.Marshal(m.Name)
		sb.Write(name)
		sb.WriteByte(':')
		sb.WriteString(m.Value)
	}
	sb.WriteByte('}')
	return respace(rng, sb.String())
}

var spaces = []string{"", "", "", " ", "  ", "\n", "\t", "\r\n", " \n\t"}

// respace puts random whitespace around every structural character of
// the JSON text src.
func respace(rng *rand.Rand, src string) []byte {
	out := make([]byte, 0, 2*len(src))
	inString := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case inString:
			if c == '\\' {
				out = append(out, c)
				i++
				c = src[i]
			} else if c == '"' {
				inString = false
			}
			out = append(out, c)
		case c == '"':
			inString = true
			out = append(out, c)
		case strings.IndexByte("{}[],:", c) >= 0:
			out = append(out, spaces[rng.Intn(len(spaces))]...)
			out = append(out, c)
			out = append(out, spaces[rng.Intn(len(spaces))]...)
		default:
			out = append(out, c)
		}
	}
	return out
}

var (
	memberName = regexp.MustCompile(`"([a-z_]+)"(\s*:)`)
	number     = regexp.MustCompile(`([:\[,]\s*)(-?[0-9]+(?:\.[0-9]+)?)`)
	stringVal  = regexp.MustCompile(`(:\s*"|\[\s*")([^"\\]*)"`)
	anyValue   = regexp.MustCompile(`(:\s*)("[^"\\]*"|-?[0-9.]+|\[[^\[\]{}]*\])`)
)

// numberForms are spellings of numbers that encoding/json reads
// differently by target type, or not at all.
var numberForms = []string{
	"1e2", "1E+2", "1.0", "2.50", "-0", "0.0", "00", "01", "1.", ".5", "+1", "-", "1e", "0x10",
	"1234567890123456789", "9223372036854775807", "9223372036854775808", "-9223372036854775809",
	"1e999", "-1e999", "1e-999", "0.1e1", "100000000000000000000", "4.9e-324",
}

// stringForms are string contents that are not their own bytes, or are
// not strings encoding/json accepts.
var stringForms = []string{
	`\u0041`, `\n`, `\"`, `\\`, `\/`, `\u00e9`, `\ud83d\ude00`, `\ud800`, `\x`, `\u12`, "\x01", "\x1f", "\x7f",
	"\xff", "\xc3", "\xe2\x82", "\xed\xa0\x80", "é", "×", "😀", "\u2028", "<&>", " ",
}

// syntaxBytes are the bytes JSON's syntax is made of.
const syntaxBytes = `{}[]":,\ -+.eE0129ntfau`

// trailers follow a complete body.
var trailers = []string{
	`{"budget":1}`, ` garbage`, `,`, `}`, `]`, `null`, ` 1`, "\x00", `""`, "\n\n{}", "/* c */", "//",
}

// Hostile returns body damaged in one to three of the ways a sloppy
// client or an attacker spells a request: member names in another case,
// escaped, doubled or unknown; nulls; numbers in every form JSON and
// strconv know; strings with escapes, control bytes and broken UTF-8;
// values of the wrong type; nesting; bytes after the body; the body cut
// short. Most results are rejected by encoding/json, some are accepted
// and mean something else than body, some still mean the same.
func Hostile(rng *rand.Rand, body []byte) []byte {
	s := string(body)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		s = damage(rng, s)
	}
	return []byte(s)
}

// pick returns one match of re in s, as submatch index pairs.
func pick(rng *rand.Rand, re *regexp.Regexp, s string) []int {
	all := re.FindAllStringSubmatchIndex(s, -1)
	if len(all) == 0 {
		return nil
	}
	return all[rng.Intn(len(all))]
}

func damage(rng *rand.Rand, s string) string {
	switch rng.Intn(14) {
	case 0: // a member name in another case
		if m := pick(rng, memberName, s); m != nil {
			name := s[m[2]:m[3]]
			folded := []string{strings.ToUpper(name), strings.ToUpper(name[:1]) + name[1:], name[:len(name)-1] + strings.ToUpper(name[len(name)-1:])}
			return s[:m[2]] + folded[rng.Intn(len(folded))] + s[m[3]:]
		}
	case 1: // a member name with an escape in it
		if m := pick(rng, memberName, s); m != nil {
			name := s[m[2]:m[3]]
			i := rng.Intn(len(name))
			return s[:m[2]] + name[:i] + fmt.Sprintf(`\u%04x`, name[i]) + name[i+1:] + s[m[3]:]
		}
	case 2: // a member twice
		if m := pick(rng, anyValue, s); m != nil {
			if k := strings.LastIndexByte(s[:m[0]], '"'); k > 0 {
				if j := strings.LastIndexByte(s[:k], '"'); j >= 0 {
					return s[:m[1]] + "," + s[j:m[1]] + s[m[1]:]
				}
			}
		}
	case 3: // a null
		if m := pick(rng, anyValue, s); m != nil {
			return s[:m[4]] + "null" + s[m[5]:]
		}
	case 4, 5: // a number in another form
		if m := pick(rng, number, s); m != nil {
			return s[:m[4]] + numberForms[rng.Intn(len(numberForms))] + s[m[5]:]
		}
	case 6, 7: // a string that is not its own bytes
		if m := pick(rng, stringVal, s); m != nil {
			i := m[4] + rng.Intn(m[5]-m[4]+1)
			return s[:i] + stringForms[rng.Intn(len(stringForms))] + s[i:]
		}
	case 8: // a value of another type
		if m := pick(rng, anyValue, s); m != nil {
			other := []string{`"7"`, `7`, `[7]`, `["7"]`, `{}`, `{"7":7}`, `true`, `[]`, `[[3,5]]`, `7.5`, `""`}
			return s[:m[4]] + other[rng.Intn(len(other))] + s[m[5]:]
		}
	case 9: // a member nobody knows, or one from another endpoint
		if i := strings.IndexByte(s, '{'); i >= 0 {
			extra := []string{`"bogus":1`, `"scenarios":["mv1"]`, `"scenario":"mv2"`, `"steps":7`, `"provider":"stratus"`, `"providers":["stratus"]`, `"":0`, `"workload":[]`, `"workload":[{}]`, `"workload":[{"point":[1,1],"levels":[]}]`}
			return s[:i+1] + extra[rng.Intn(len(extra))] + "," + s[i+1:]
		}
	case 10: // nesting, where a tariff may be written inline
		if i := strings.IndexByte(s, '{'); i >= 0 {
			depth := []int{1, 3, 70, 200}[rng.Intn(4)]
			return s[:i+1] + `"provider_spec":` + strings.Repeat(`{"a":[`, depth) + strings.Repeat(`]}`, depth) + "," + s[i+1:]
		}
	case 11: // bytes after the body
		return s + trailers[rng.Intn(len(trailers))]
	case 12: // the body cut short
		if len(s) > 0 {
			return s[:rng.Intn(len(s))]
		}
	default: // one byte changed
		if len(s) > 0 {
			i := rng.Intn(len(s))
			return s[:i] + string(syntaxBytes[rng.Intn(len(syntaxBytes))]) + s[i+1:]
		}
	}
	return s
}
