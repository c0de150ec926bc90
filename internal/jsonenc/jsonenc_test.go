package jsonenc

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"unicode/utf8"
)

// checkString holds every form of the escaper to encoding/json:
// AppendString over a string and over a []byte, Measure's width and
// plainness over both, and the JSON sink fed the text in two pieces, as
// a string and as bytes. cut is where the
// pieces part, moved on to the start of a UTF-8 sequence: a renderer
// hands the sink whole names and cells, never half a rune.
func checkString(t *testing.T, s string, cut int) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte(`{"report":`)
	if got := AppendString(bytes.Clone(prefix), s); !bytes.Equal(got[len(prefix):], want) {
		t.Errorf("AppendString(%q) = %s, want %s", s, got[len(prefix):], want)
	}
	if got := AppendString(nil, []byte(s)); !bytes.Equal(got, want) {
		t.Errorf("AppendString([]byte(%q)) = %s, want %s", s, got, want)
	}
	for cut < len(s) && !utf8.RuneStart(s[cut]) {
		cut++
	}
	// Exactly-sized, so the sink has to grow the buffer itself.
	w := StringText(prefix[:len(prefix):len(prefix)])
	w.Str(s[:cut])
	w.Bytes([]byte(s[cut:]))
	if got := w.Close(); !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Errorf("JSON sink(%q, %q) = %s, want %s%s", s[:cut], s[cut:], got, prefix, want)
	}
	plain := string(want) == `"`+s+`"`
	if width, ok := Measure(s); width != utf8.RuneCountInString(s) || ok != plain {
		t.Errorf("Measure(%q) = %d, %v; want %d, %v", s, width, ok, utf8.RuneCountInString(s), plain)
	}
	if width, ok := Measure([]byte(s)); width != utf8.RuneCountInString(s) || ok != plain {
		t.Errorf("Measure([]byte(%q)) = %d, %v; want %d, %v", s, width, ok, utf8.RuneCountInString(s), plain)
	}
	raw := Text{Buf: bytes.Clone(prefix)}
	raw.Str(s[:cut])
	raw.Bytes([]byte(s[cut:]))
	if got := raw.Close(); string(got) != string(prefix)+s {
		t.Errorf("raw sink(%q, %q) = %q", s[:cut], s[cut:], got)
	}
}

func FuzzAppendJSONString(f *testing.F) {
	f.Add("| aws-2012/small×5 | 12.345h |\n", uint(8))
	f.Add("a\xe2\x80\xa8b", uint(2))
	f.Fuzz(func(t *testing.T, s string, cut uint) { checkString(t, s, int(cut%uint(len(s)+1))) })
}

// TestTextNewline: a line end is the one thing the sink writes that is
// not its caller's text.
func TestTextNewline(t *testing.T) {
	w := StringText(nil)
	w.Str("a")
	w.Newline()
	w.Buf = append(w.Buf, "| - |"...)
	w.Newline()
	if got, want := string(w.Close()), `"a\n| - |\n"`; got != want {
		t.Errorf("JSON sink = %s, want %s", got, want)
	}
	raw := Text{}
	raw.Str("a")
	raw.Newline()
	if got := string(raw.Close()); got != "a\n" {
		t.Errorf("raw sink = %q", got)
	}
}

func TestAppendStringEveryByte(t *testing.T) {
	for b := 0; b < 256; b++ {
		checkString(t, string([]byte{byte(b)}), 0)
		for cut := 0; cut <= 3; cut++ {
			checkString(t, string([]byte{'a', byte(b), 'z'}), cut)
		}
	}
}

func TestAppendStrings(t *testing.T) {
	for _, ss := range [][]string{nil, {}, {"a"}, {"year×country", "<&>", ""}} {
		want, _ := json.Marshal(ss)
		if got := AppendStrings(nil, ss); !bytes.Equal(got, want) {
			t.Errorf("AppendStrings(%q) = %s, want %s", ss, got, want)
		}
	}
}

type appender string

func (a appender) AppendJSON(dst []byte) ([]byte, error) {
	if a == "" {
		return dst, errors.New("empty")
	}
	return AppendString(dst, string(a)), nil
}

func TestAppendArray(t *testing.T) {
	for _, c := range []struct {
		xs   []appender
		want string
	}{
		{nil, `null`}, {[]appender{}, `[]`}, {[]appender{"a"}, `["a"]`}, {[]appender{"a", "<", "c"}, `["a","\u003c","c"]`},
	} {
		got, err := AppendArray([]byte("x"), c.xs)
		if err != nil || string(got) != "x"+c.want {
			t.Errorf("AppendArray(%q) = %s, %v; want x%s", c.xs, got, err, c.want)
		}
	}
	if _, err := AppendArray(nil, []appender{"a", ""}); err == nil {
		t.Error("AppendArray swallowed an element's error")
	}
}

func TestAppendFloat(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.1 + 0.2, 100, 1e20, 1e21, 1.5e21, -1e21, 123456789012345678,
		1e-6, 1e-7, 9.99e-7, -1e-7, 1.234e-9, 1e-10, 1e-100, 1e100,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.MaxInt64, 2.0 / 3,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat([]byte("x"), f)
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("AppendFloat(%g) = %s, %v; want x%s", f, got, err, want)
		}
	}
}

// TestAppendFloatUnsupported: what has no JSON form must fail exactly
// as encoding/json fails, and append nothing — an encoder that let it
// through would put invalid JSON in the response cache.
func TestAppendFloatUnsupported(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, wantErr := json.Marshal(f)
		var want *json.UnsupportedValueError
		if !errors.As(wantErr, &want) {
			t.Fatalf("json.Marshal(%g) error = %v", f, wantErr)
		}
		got, err := AppendFloat([]byte("x"), f)
		var uv *json.UnsupportedValueError
		if !errors.As(err, &uv) || uv.Str != want.Str || err.Error() != wantErr.Error() {
			t.Errorf("AppendFloat(%g) error = %v, want %v", f, err, wantErr)
		}
		if string(got) != "x" {
			t.Errorf("AppendFloat(%g) appended %q", f, got[1:])
		}
	}
}

func BenchmarkAppendString(b *testing.B) {
	s := "| aws-2012/small×5 | 12.345h | $123.45 | true | 3 |\n"
	buf := make([]byte, 0, 256)
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendString(buf[:0], s)
	}
}

func TestAppendInts(t *testing.T) {
	for _, xs := range [][]int{nil, {}, {5}, {3, -5, 0, math.MaxInt64, math.MinInt64}} {
		want, _ := json.Marshal(xs)
		if got := AppendInts([]byte("x"), xs); string(got) != "x"+string(want) {
			t.Errorf("AppendInts(%v) = %s, want x%s", xs, got, want)
		}
	}
}

// TestAppendCompact holds AppendCompact to what encoding/json writes
// for a json.RawMessage member: every text below, plain, indented and
// with whitespace around it.
func TestAppendCompact(t *testing.T) {
	for _, src := range []string{
		`{}`, `[]`, `0`, `"a b"`, `null`,
		`{"name":"tiny","compute":{"granularity":"per-hour","instances":[{"name":"small","price_per_hour":"$0.10","ecu":1}]},"free":true}`,
		`{"a":"< > & < \" \\ \\\" \\\\","b":[1, 2 ,3],"c":" \t ","d":"\\"}`,
		"{\"sep\":\"a b c\",\"times\":\"year×country\",\"e2\":\"\xe2\x80\xa7 \xe2\x80\"}",
		`[" ",{" ":" "},"\n"]`,
	} {
		var indented bytes.Buffer
		if err := json.Indent(&indented, []byte(src), " ", "\t"); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, text := range [][]byte{[]byte(src), indented.Bytes(), []byte(" \n" + src + "\r\t ")} {
			want, err := json.Marshal(struct {
				R json.RawMessage `json:"r"`
			}{text})
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			got := append(AppendCompact([]byte(`{"r":`), text), '}')
			if !bytes.Equal(got, want) {
				t.Errorf("AppendCompact(%s) = %s, want %s", text, got, want)
			}
		}
	}
}

func TestEndObject(t *testing.T) {
	if got := EndObject([]byte("x"), 1); string(got) != "x{}" {
		t.Errorf("empty object = %s", got)
	}
	if got := EndObject([]byte(`x,"a":1,"b":2`), 1); string(got) != `x{"a":1,"b":2}` {
		t.Errorf("object = %s", got)
	}
}
