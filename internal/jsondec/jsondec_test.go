package jsondec

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// value is every target type the request decoders read a JSON value
// into; check reads src into each of them both ways.
type value struct {
	S  string
	I  int
	I6 int64
	F  float64
	SS []string
	IS []int
	R  json.RawMessage
}

// check holds one primitive to encoding/json on src: if the fast
// grammar accepts src as the whole document, encoding/json accepts it
// too and reads the same value. It reports which targets accepted.
func check(t *testing.T, src string) (accepted int) {
	t.Helper()
	for _, c := range []struct {
		name string
		fast func(d *Decoder, v *value)
		ref  func(v *value) any
	}{
		{"String", func(d *Decoder, v *value) { v.S = d.String() }, func(v *value) any { return &v.S }},
		{"Int", func(d *Decoder, v *value) { v.I = d.Int() }, func(v *value) any { return &v.I }},
		{"Int64", func(d *Decoder, v *value) { v.I6 = d.Int64() }, func(v *value) any { return &v.I6 }},
		{"Float", func(d *Decoder, v *value) { v.F = d.Float() }, func(v *value) any { return &v.F }},
		{"Strings", func(d *Decoder, v *value) { v.SS = d.Strings() }, func(v *value) any { return &v.SS }},
		{"Ints", func(d *Decoder, v *value) { v.IS = d.Ints() }, func(v *value) any { return &v.IS }},
		{"Raw", func(d *Decoder, v *value) { v.R = json.RawMessage(d.Raw()) }, func(v *value) any { return &v.R }},
	} {
		var got, want value
		d := New(src)
		c.fast(&d, &got)
		d.End()
		if !d.OK() {
			continue
		}
		accepted++
		if c.name != "Raw" && strings.Contains(src, "null") {
			t.Errorf("%s accepted %q, which holds a null", c.name, src)
		}
		if err := json.Unmarshal([]byte(src), c.ref(&want)); err != nil {
			t.Errorf("%s accepted %q, encoding/json rejects it: %v", c.name, src, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s(%q) = %+v, encoding/json reads %+v", c.name, src, got, want)
		}
	}
	return accepted
}

var literals = []string{
	`""`, `"a"`, `"year×country"`, `"é"`, `"a\"b"`, `"a\\b"`, "\"a\x01b\"", "\"a\x7fb\"", "\"\xff\"", "\"\xc3\"", `"😀"`, `"`, `"abc`,
	`0`, `-0`, `1`, `-1`, `12`, `007`, `-`, `+1`, `1.`, `.5`, `1.5`, `1e3`, `1E+3`, `1e-3`, `1e`, `1e+`, `0.1`, `0.10`, `1e999`, `-1e999`, `1e-999`,
	`123456789012345678`, `-123456789012345678`, `1234567890123456789`, `9223372036854775807`, `9223372036854775808`, `-9223372036854775808`,
	`[]`, `[ ]`, `[1]`, `[1,2,3]`, `[1,]`, `[,1]`, `[1 2]`, `[1,2`, `["a","b"]`, `["a",1]`, `[1,"a"]`, `[[1]]`, `[1.5]`, `[null]`,
	`{}`, `{"a":1}`, `{"a":{"b":[1,"A\n",true,false,null,{"c":-1.5e-7}]}}`, `{"a":1,}`, `{"a"}`, `{"a":}`, `{a:1}`, `{"a":1 "b":2}`, `{"a\q":1}`, `{"a":"\u12g4"}`, `{"a":"\u123"}`,
	`null`, `true`, `false`, `nul`, `tru`, `nullx`, `truefalse`,
	` 1 `, "\t\r\n1\n", "1 2", "1,", `1}`, "1\x00", "\x00", ``, ` `,
	strings.Repeat("[", 40) + strings.Repeat("]", 40),
	strings.Repeat("[", 100) + strings.Repeat("]", 100),
	strings.Repeat("[", 100),
}

func TestPrimitivesMatchEncodingJSON(t *testing.T) {
	accepted := 0
	for _, src := range literals {
		accepted += check(t, src)
	}
	// Seeded splices of the literals: values next to the wrong
	// neighbours, cut short, doubled.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 4000; i++ {
		a, b := literals[rng.Intn(len(literals))], literals[rng.Intn(len(literals))]
		var src string
		switch rng.Intn(4) {
		case 0:
			src = a + b
		case 1:
			src = "[" + a + "," + b + "]"
		case 2:
			src = a[:rng.Intn(len(a)+1)] + b[rng.Intn(len(b)+1):]
		default:
			src = `{"k":` + a + `,"` + b + `":` + b + "}"
		}
		accepted += check(t, src)
	}
	if accepted < 1000 {
		t.Errorf("only %d accepts: the differential test is mostly testing the decline path", accepted)
	}
}

// TestAccepts pins the forms the served traffic is made of inside the
// fast grammar: a change that declines one of these sends every request
// down the encoding/json path without failing any differential test.
func TestAccepts(t *testing.T) {
	for _, c := range []struct {
		src  string
		read func(d *Decoder)
	}{
		{`"mv1"`, func(d *Decoder) { _ = d.String() }},
		{`"profit per year and country"`, func(d *Decoder) { _ = d.String() }},
		{`"year×country"`, func(d *Decoder) { _ = d.String() }},
		{`200000000`, func(d *Decoder) { d.Int64() }},
		{`-1`, func(d *Decoder) { d.Int() }},
		{`0.2`, func(d *Decoder) { d.Float() }},
		{`6`, func(d *Decoder) { d.Float() }},
		{`1e-3`, func(d *Decoder) { d.Float() }},
		{` [ "aws-2012" , "cumulus" ] `, func(d *Decoder) { d.Strings() }},
		{`[3,5]`, func(d *Decoder) { d.Ints() }},
		{`[]`, func(d *Decoder) { d.Ints() }},
		{`{"name":"x","tiers":[{"up_to":"1TB","price":"$0.10"}],"free":true,"n":null}`, func(d *Decoder) { d.Raw() }},
	} {
		d := New(c.src)
		c.read(&d)
		d.End()
		if !d.OK() {
			t.Errorf("%s declined", c.src)
		}
	}
}

func TestObjectLoop(t *testing.T) {
	d := New(` { "a" : 1 , "b" : [ "x" ] , "c" : { } } `)
	var keys []string
	var seen uint32
	for more := d.Object(); more; more = d.More('}') {
		k := d.Key()
		keys = append(keys, k)
		d.Once(&seen, uint(len(keys)))
		switch k {
		case "a":
			if d.Int() != 1 {
				t.Error("a")
			}
		case "b":
			if ss := d.Strings(); len(ss) != 1 || ss[0] != "x" {
				t.Error("b")
			}
		case "c":
			if d.Object() {
				t.Error("c has members")
			}
		}
	}
	d.End()
	if !d.OK() || strings.Join(keys, "") != "abc" {
		t.Fatalf("ok %v, keys %v", d.OK(), keys)
	}

	d = New(`{"a":1,"a":2}`)
	seen = 0
	for more := d.Object(); more; more = d.More('}') {
		d.Key()
		d.Once(&seen, 0)
		d.Int()
	}
	if d.OK() {
		t.Error("duplicate member accepted")
	}
}

func TestDeclineIsSticky(t *testing.T) {
	d := New(`{"a":null,"b":2}`)
	n := 0
	for more := d.Object(); more; more = d.More('}') {
		d.Key()
		d.Int()
		if n++; n > 1 {
			t.Fatal("loop went on after a decline")
		}
	}
	if d.OK() || d.String() != "" || d.Int() != 0 || d.Float() != 0 || d.Raw() != "" || d.Object() || d.Array() || d.Peek() != 0 {
		t.Error("reads after a decline returned something")
	}
}
