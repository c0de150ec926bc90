package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"vmcloud/internal/jsonenc"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Prices", "instance", "price")
	tb.AddRow("small", "$0.12")
	tb.AddRow("extra large", "$0.96")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Prices" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "instance") || !strings.Contains(lines[1], "price") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "|-") {
		t.Errorf("separator = %q", lines[2])
	}
	// Column alignment: all rows the same width.
	for _, l := range lines[1:] {
		if len([]rune(l)) != len([]rune(lines[1])) {
			t.Errorf("misaligned line %q", l)
		}
	}
	if !strings.Contains(out, "extra large") {
		t.Error("row content missing")
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow(1)
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("empty title should not emit a blank line")
	}
}

func TestTableMixedCellTypes(t *testing.T) {
	tb := NewTable("", "n", "ok", "ratio")
	tb.AddRow(42, true, 0.5)
	out := tb.String()
	for _, frag := range []string{"42", "true", "0.5"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in %q", frag, out)
		}
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only")
	if !strings.Contains(tb.String(), "only") {
		t.Error("short row dropped")
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("ignored", "name", "note")
	tb.AddRow("plain", "hello")
	tb.AddRow("comma", "a,b")
	tb.AddRow("quote", `say "hi"`)
	var sb strings.Builder
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "name,note\nplain,hello\ncomma,\"a,b\"\nquote,\"say \"\"hi\"\"\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestBarChart(t *testing.T) {
	c := NewBarChart("Times", "h")
	c.Add("without", 2.0)
	c.Add("with", 0.5)
	c.Add("zero", 0)
	out := c.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Times" {
		t.Errorf("title = %q", lines[0])
	}
	// The larger value gets the longer bar.
	withBar := strings.Count(lines[2], "█")
	withoutBar := strings.Count(lines[1], "█")
	if withoutBar <= withBar {
		t.Errorf("bar lengths: without=%d with=%d", withoutBar, withBar)
	}
	// Non-zero values always render at least one block.
	if withBar < 1 {
		t.Error("small value lost its bar")
	}
	if strings.Count(lines[3], "█") != 0 {
		t.Error("zero value rendered a bar")
	}
	if !strings.Contains(lines[1], "2.000h") {
		t.Errorf("value suffix missing: %q", lines[1])
	}
}

func TestBarChartDefaults(t *testing.T) {
	c := &BarChart{}
	c.Add("x", 1)
	if !strings.Contains(c.String(), "█") {
		t.Error("zero-width default did not fall back to 40")
	}
}

func TestPercent(t *testing.T) {
	if Percent(0.25) != "25.0%" {
		t.Errorf("Percent = %q", Percent(0.25))
	}
	if Percent(-0.031) != "-3.1%" {
		t.Errorf("Percent = %q", Percent(-0.031))
	}
}

func TestPad(t *testing.T) {
	if pad("ab", 4) != "ab  " || pad("abcd", 2) != "abcd" {
		t.Error("pad wrong")
	}
}

// referenceRender is the table renderer AppendTo replaced — cells as
// strings, fmt and strings.Join — kept as the layout reference.
func referenceRender(title string, headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var sb strings.Builder
	if title != "" {
		fmt.Fprintf(&sb, "%s\n", title)
	}
	line := func(cells []string) string {
		parts := make([]string, len(widths))
		for i := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = pad(c, widths[i])
		}
		return "| " + strings.Join(parts, " | ") + " |"
	}
	sep := make([]string, len(widths))
	for i, wd := range widths {
		sep[i] = strings.Repeat("-", wd)
	}
	out := []string{line(headers), "|-" + strings.Join(sep, "-|-") + "-|"}
	for _, row := range rows {
		out = append(out, line(row))
	}
	fmt.Fprintln(&sb, strings.Join(out, "\n"))
	return sb.String()
}

// TestAppendToMatchesReference renders seeded random tables — ragged
// rows, empty and multi-byte cells, invalid UTF-8, no columns, more
// cells than the inline arenas hold — through both renderers.
func TestAppendToMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	alphabet := []string{"a", "B", "7", " ", "×", "—", "α", "$", ".", "\xff", "|", "😀"}
	word := func() string {
		var sb strings.Builder
		for n := rng.Intn(9); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for trial := 0; trial < 300; trial++ {
		title := ""
		if rng.Intn(2) == 0 {
			title = word()
		}
		headers := make([]string, rng.Intn(7))
		if trial%50 == 0 {
			headers = make([]string, 20) // past AppendTo's inline width array
		}
		for i := range headers {
			headers[i] = word()
		}
		tb := NewTable(title, headers...)
		nrows := rng.Intn(6)
		if trial%25 == 0 {
			nrows = 40 // past the table's inline arenas
		}
		rows := make([][]string, nrows)
		for r := range rows {
			rows[r] = make([]string, rng.Intn(len(headers)+2))
			cells := make([]any, len(rows[r]))
			for i := range rows[r] {
				rows[r][i] = word()
				cells[i] = rows[r][i]
			}
			if r%2 == 0 {
				tb.AddRow(cells...)
				continue
			}
			for _, c := range rows[r] {
				tb.Cell([]byte(c))
			}
			tb.EndRow()
		}
		want := referenceRender(title, headers, rows)
		if got := tb.String(); got != want {
			t.Fatalf("trial %d:\ngot:\n%s\nwant:\n%s", trial, got, want)
		}
		if got := string(tb.AppendTo([]byte("prefix"))); got != "prefix"+want {
			t.Fatalf("trial %d: AppendTo disturbed its prefix:\n%s", trial, got)
		}
		if got := tb.Rows(); len(rows) > 0 && !reflect.DeepEqual(got, rows) {
			t.Fatalf("trial %d: Rows() = %q, want %q", trial, got, rows)
		}
	}
}

// FuzzTableMatchesReference renders fuzzed tables through AppendTo and
// through AppendText on both sinks, and holds them to referenceRender:
// the raw forms byte for byte, the JSON sink to the reference's text as
// jsonenc.AppendString quotes it. The title is the fuzzer's; the
// headers and cells are consecutive pieces of data, so they hold any
// byte — control bytes, " \ < &, invalid UTF-8, U+2028 and U+2029,
// runes cut in half — and seed lays out how many headers there are, how
// long each piece is and how many cells each row has, short and
// over-long rows included.
func FuzzTableMatchesReference(f *testing.F) {
	f.Add("title", []byte("configuration|time|aws-2012/small×5|12.345h|$1.00"), int64(1))
	f.Add("", bytes.Repeat([]byte("\x00\x1f\"\\<>&\u2028\u2029\xff\xe2\x80α😀—\t\n"), 8), int64(5))
	f.Add("a \"title\"\n<&>\u2029", bytes.Repeat([]byte("\u2028\xf0\x9f\x98\u2029"), 16), int64(7))
	f.Add("wide", bytes.Repeat([]byte("cell×"), 400), int64(4))
	f.Fuzz(func(t *testing.T, title string, data []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		piece := func() string {
			n := min(rng.Intn(12), len(data))
			p := string(data[:n])
			data = data[n:]
			return p
		}
		headers := make([]string, rng.Intn(7))
		if rng.Intn(8) == 0 {
			headers = make([]string, 20) // past AppendText's inline arrays
		}
		for i := range headers {
			headers[i] = piece()
		}
		tb := NewTable(title, headers...)
		nrows := rng.Intn(6)
		if rng.Intn(8) == 0 {
			nrows = 40 // past the table's inline stream
		}
		rows := make([][]string, nrows)
		for r := range rows {
			rows[r] = make([]string, rng.Intn(len(headers)+3))
			for i := range rows[r] {
				rows[r][i] = piece()
			}
			if r%2 == 0 {
				cells := make([]any, len(rows[r]))
				for i, c := range rows[r] {
					cells[i] = c
				}
				tb.AddRow(cells...)
				continue
			}
			for _, c := range rows[r] {
				tb.Cell([]byte(c))
			}
			tb.EndRow()
		}
		want := referenceRender(title, headers, rows)
		if got := string(tb.AppendTo([]byte("prefix"))); got != "prefix"+want {
			t.Fatalf("AppendTo:\ngot:\n%q\nwant:\n%q", got, "prefix"+want)
		}
		raw := jsonenc.Text{Buf: []byte("prefix")}
		tb.AppendText(&raw)
		if got := string(raw.Close()); got != "prefix"+want {
			t.Fatalf("AppendText, raw sink:\ngot:\n%q\nwant:\n%q", got, "prefix"+want)
		}
		lit := jsonenc.StringText([]byte("prefix"))
		tb.AppendText(&lit)
		if got, want := string(lit.Close()), string(jsonenc.AppendString([]byte("prefix"), want)); got != want {
			t.Fatalf("AppendText, JSON sink:\ngot:  %s\nwant: %s", got, want)
		}
	})
}

type appendStringer int

func (a appendStringer) AppendString(dst []byte) []byte { return append(dst, "appended"...) }

// TestAddRowFormatsLikeV: whatever AddRow is handed comes out as fmt's
// %v would print it.
func TestAddRowFormatsLikeV(t *testing.T) {
	values := []any{"s", 42, -7, true, false, 0.5, int64(9), uint8(3), nil, []int{1, 2}, time.Second, errors.New("e")}
	tb := NewTable("")
	tb.AddRow(values...)
	for i, v := range values {
		if got, want := tb.Rows()[0][i], fmt.Sprintf("%v", v); got != want {
			t.Errorf("cell %d = %q, want %q", i, got, want)
		}
	}
	tb.AddRow(appendStringer(1))
	if got := tb.Rows()[1][0]; got != "appended" {
		t.Errorf("AppendString cell = %q", got)
	}
}

var reportHeaders = []string{"configuration", "workload time", "total cost", "feasible", "views"}

// fillReportTable builds the comparison matrix of a 2×2 compare the way
// the serving path's renderers do: a local Table, cells formatted into a
// local scratch buffer.
func fillReportTable(tb *Table) {
	var sb [32]byte
	tb.Reset("", reportHeaders)
	for i := 0; i < 4; i++ {
		tb.Cell(append(sb[:0], "aws-2012/small×5"...))
		tb.Cell(AppendHours(sb[:0], 12345*time.Second))
		tb.Cell(append(sb[:0], "$123.45"...))
		tb.Cell(append(sb[:0], "true"...))
		tb.Cell(append(sb[:0], "3"...))
		tb.EndRow()
	}
}

// TestTableAppendToAllocs: a report-sized table is built on its caller's
// stack and rendered, in either form, into a buffer that is large
// enough without allocating at all.
func TestTableAppendToAllocs(t *testing.T) {
	buf := make([]byte, 0, 4096)
	if allocs := testing.AllocsPerRun(100, func() {
		var tb Table
		fillReportTable(&tb)
		buf = tb.AppendTo(buf[:0])
		w := jsonenc.StringText(buf[:0])
		tb.AppendText(&w)
		buf = w.Close()
	}); allocs != 0 {
		t.Errorf("building and rendering a report-sized table: %.1f allocs, want 0", allocs)
	}
}

// TestAppendTextJSON: the table written through a JSON sink is the
// JSON string literal of the table written raw — hostile titles,
// headers and cells escaped, padding counted on the raw text.
func TestAppendTextJSON(t *testing.T) {
	tb := NewTable("a \"title\"\n<&>", "h\x00", "×\u2028", "plain")
	tb.AddRow("\"quoted\"", "line\nbreak", "\xff\xfe")
	tb.AddRow("", "</script>", "tab\there")
	tb.AddRow("ok")
	want, err := json.Marshal(tb.String())
	if err != nil {
		t.Fatal(err)
	}
	w := jsonenc.StringText([]byte("prefix"))
	tb.AppendText(&w)
	if got := string(w.Close()); got != "prefix"+string(want) {
		t.Errorf("JSON sink:\ngot:  %s\nwant: prefix%s", got, want)
	}
}

func TestAppendHoursPercent(t *testing.T) {
	for _, d := range []time.Duration{0, time.Hour, 90 * time.Minute, 12345 * time.Second, -time.Minute, 1<<63 - 1} {
		if got, want := string(AppendHours(nil, d)), fmt.Sprintf("%.3fh", d.Hours()); got != want {
			t.Errorf("AppendHours(%v) = %q, want %q", d, got, want)
		}
	}
	for _, r := range []float64{0, 0.25, -0.031, 1, 0.9995, 12.3456, math.Inf(1), math.NaN()} {
		if got, want := Percent(r), fmt.Sprintf("%.1f%%", r*100); got != want {
			t.Errorf("Percent(%v) = %q, want %q", r, got, want)
		}
	}
}

func BenchmarkTableAppendTo(b *testing.B) {
	var tb Table
	fillReportTable(&tb)
	buf := tb.AppendTo(make([]byte, 0, 4096))
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = tb.AppendTo(buf[:0])
	}
}
