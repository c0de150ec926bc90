// Package report renders experiment results as fixed-width text tables,
// horizontal bar charts (the Figure 5 analogue) and CSV.
package report

import (
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"vmcloud/internal/jsonenc"
)

// Table is a simple column-aligned text table.
//
// The zero Table with Headers set is ready to use, and the renderers on
// the serving path declare theirs as a local: it holds no pointer into
// itself, so it stays on the caller's stack, and a report-sized one
// never touches the heap.
type Table struct {
	Title   string
	Headers []string

	// The rows are one byte stream: per cell a mark — text length and
	// display width, a uint32 each, the width's escapeBit set when the
	// text is not plain (jsonenc.Measure) — followed by the text, and per
	// row a closing rowEnd word. The stream fills inline first and moves to
	// spill, whole, when it outgrows it; inline holds a ten-cell sweep's
	// grid (about 130 bytes a row).
	n      int
	inline [2048]byte
	spill  []byte
}

const (
	markSize  = 8
	rowEnd    = ^uint32(0)
	escapeBit = 1 << 31
)

// NewTable creates a table with the given headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Reset empties the table for reuse under a new title and headers.
func (t *Table) Reset(title string, headers []string) {
	t.Title, t.Headers = title, headers
	t.n, t.spill = 0, nil
}

// AddRow appends a row. Strings, ints, bools and values with an
// AppendString method (money.Money, units.DataSize) are formatted
// directly; anything else is formatted as fmt's %v.
func (t *Table) AddRow(cells ...any) {
	var text []byte
	for _, c := range cells {
		text = appendValue(text[:0], c)
		t.Cell(text)
	}
	t.EndRow()
}

func appendValue(dst []byte, c any) []byte {
	switch v := c.(type) {
	case string:
		return append(dst, v...)
	case interface{ AppendString([]byte) []byte }:
		return v.AppendString(dst)
	case int:
		return strconv.AppendInt(dst, int64(v), 10)
	case bool:
		return strconv.AppendBool(dst, v)
	default:
		return fmt.Append(dst, c)
	}
}

// Cell and EndRow build a row without boxing its values, for renderers
// on the serving path: format each cell into a scratch buffer, hand it
// to Cell — which copies it — and close the row with EndRow.
//
//	var sb [32]byte
//	t.Cell(bill.Total().AppendString(sb[:0]))
//	t.Cell(append(sb[:0], "with views"...))
//	t.EndRow()
//
// The cell is measured here, in one pass (jsonenc.Measure): its display
// width in runes, and whether a JSON sink may copy it unescaped.
//
//mvlint:hotpath
func (t *Table) Cell(text []byte) {
	width, plain := jsonenc.Measure(text)
	mark := uint32(width)
	if !plain {
		mark |= escapeBit
	}
	b := t.grow(markSize + len(text))
	binary.LittleEndian.PutUint32(b, uint32(len(text)))
	binary.LittleEndian.PutUint32(b[4:], mark)
	copy(b[markSize:], text)
}

// EndRow closes the current row.
//
//mvlint:hotpath
func (t *Table) EndRow() {
	binary.LittleEndian.PutUint32(t.grow(4), rowEnd)
}

// grow extends the stream by k bytes and returns them.
//
//mvlint:hotpath
func (t *Table) grow(k int) []byte {
	if t.spill == nil && t.n+k <= len(t.inline) {
		t.n += k
		return t.inline[t.n-k : t.n]
	}
	if t.spill == nil {
		t.spill = append(make([]byte, 0, 4*len(t.inline)+k), t.inline[:t.n]...)
	}
	n := len(t.spill)
	t.spill = append(t.spill, make([]byte, k)...)
	return t.spill[n:]
}

// stream returns the rows recorded so far.
func (t *Table) stream() []byte {
	if t.spill != nil {
		return t.spill
	}
	return t.inline[:t.n]
}

// nextCell splits the first cell off the stream s: its text, its width
// and whether it is plain. At the end of a row (or of the stream) ok is
// false and s is returned as it came.
//
//mvlint:hotpath
func nextCell(s []byte) (text []byte, width int, plain bool, rest []byte, ok bool) {
	if len(s) < markSize {
		return nil, 0, false, s, false
	}
	n := binary.LittleEndian.Uint32(s)
	if n == rowEnd {
		return nil, 0, false, s, false
	}
	end := markSize + int(n)
	mark := binary.LittleEndian.Uint32(s[4:])
	return s[markSize:end], int(mark &^ escapeBit), mark&escapeBit == 0, s[end:], true
}

// endRow steps s, which nextCell has exhausted, over the row's closing
// word.
func endRow(s []byte) []byte {
	if len(s) < 4 {
		return nil
	}
	return s[4:]
}

// AppendTo appends the rendered table to dst: the title line if there
// is a title, the header line, a separator, and one line per row, every
// column padded to its widest cell (in runes).
//
//mvlint:hotpath
func (t *Table) AppendTo(dst []byte) []byte {
	w := jsonenc.Text{Buf: dst}
	t.AppendText(&w)
	return w.Buf
}

// AppendText writes what AppendTo appends through w. Titles, headers
// and cells may hold anything; those that are not plain go through w's
// escaping, and plain ones, like the rules and the padding between
// them, are copied through. Widths were counted on the cells' own text,
// so a column is as wide in the rendered report as it is once a JSON
// decoder has undone the escapes.
//
//mvlint:hotpath
func (t *Table) AppendText(w *jsonenc.Text) {
	var (
		widthArena  [16]int
		headerArena [16]header
	)
	widths, headers := widthArena[:0], headerArena[:0]
	for _, h := range t.Headers {
		width, plain := jsonenc.Measure(h)
		widths = append(widths, width)
		headers = append(headers, header{width, plain})
	}
	col := 0
	for s := t.stream(); len(s) > 0; {
		_, width, _, rest, ok := nextCell(s)
		if !ok {
			s, col = endRow(s), 0
			continue
		}
		if col < len(widths) && width > widths[col] {
			widths[col] = width
		}
		s = rest
		col++
	}
	if t.Title != "" {
		w.Str(t.Title)
		w.Newline()
	}
	w.Buf = append(w.Buf, "| "...)
	for i, h := range t.Headers {
		if i > 0 {
			w.Buf = append(w.Buf, " | "...)
		}
		if headers[i].plain {
			w.Buf = append(w.Buf, h...)
		} else {
			w.Str(h)
		}
		w.Buf = appendRun(w.Buf, spaces, widths[i]-headers[i].width)
	}
	w.Buf = append(w.Buf, " |"...)
	w.Newline()
	w.Buf = append(w.Buf, "|-"...)
	for i, width := range widths {
		if i > 0 {
			w.Buf = append(w.Buf, "-|-"...)
		}
		w.Buf = appendRun(w.Buf, dashes, width)
	}
	w.Buf = append(w.Buf, "-|"...)
	w.Newline()
	for s := t.stream(); len(s) > 0; s = endRow(s) {
		w.Buf = append(w.Buf, "| "...)
		// A short row is padded with empty cells.
		for i, width := range widths {
			if i > 0 {
				w.Buf = append(w.Buf, " | "...)
			}
			if text, tw, plain, rest, ok := nextCell(s); ok {
				if plain {
					w.Buf = append(w.Buf, text...)
				} else {
					w.Bytes(text)
				}
				width -= tw
				s = rest
			}
			w.Buf = appendRun(w.Buf, spaces, width)
		}
		for ok := true; ok; { // past any cells beyond the last header
			_, _, _, s, ok = nextCell(s)
		}
		w.Buf = append(w.Buf, " |"...)
		w.Newline()
	}
}

// header is a header's measure (jsonenc.Measure).
type header struct {
	width int
	plain bool
}

const (
	spaces = "                                                                "
	dashes = "----------------------------------------------------------------"
)

// appendRun appends the first n bytes of run, a constant string of one
// repeated byte, going round again for an n beyond its length.
//
//mvlint:hotpath
func appendRun(dst []byte, run string, n int) []byte {
	for ; n > len(run); n -= len(run) {
		dst = append(dst, run...)
	}
	if n > 0 {
		dst = append(dst, run[:n]...)
	}
	return dst
}

// String renders to a string.
func (t *Table) String() string {
	return string(t.AppendTo(nil))
}

// Rows returns the formatted cell rows accumulated so far.
func (t *Table) Rows() [][]string {
	var out [][]string
	for s := t.stream(); len(s) > 0; s = endRow(s) {
		row := []string{}
		for {
			text, _, _, rest, ok := nextCell(s)
			if !ok {
				break
			}
			row = append(row, string(text))
			s = rest
		}
		out = append(out, row)
	}
	return out
}

// CSV writes the table as comma-separated values (cells with commas or
// quotes are quoted).
func (t *Table) CSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		quoted := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				quoted[i] = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			} else {
				quoted[i] = c
			}
		}
		_, err := fmt.Fprintln(w, strings.Join(quoted, ","))
		return err
	}
	if err := writeRow(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows() {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	n := w - len([]rune(s))
	if n <= 0 {
		return s
	}
	return s + strings.Repeat(" ", n)
}

// BarChart renders grouped horizontal bars — the text analogue of the
// paper's Figure 5 bar groups.
type BarChart struct {
	Title string
	// Unit is appended to values, e.g. "h" or "$".
	Unit string
	// Width is the maximum bar width in characters (default 40).
	Width int
	bars  []bar
}

type bar struct {
	label string
	value float64
}

// NewBarChart creates a chart.
func NewBarChart(title, unit string) *BarChart {
	return &BarChart{Title: title, Unit: unit, Width: 40}
}

// Add appends one bar.
func (c *BarChart) Add(label string, value float64) {
	c.bars = append(c.bars, bar{label, value})
}

// Render writes the chart to w.
func (c *BarChart) Render(w io.Writer) error {
	if c.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", c.Title); err != nil {
			return err
		}
	}
	maxLabel, maxVal := 0, 0.0
	for _, b := range c.bars {
		if len(b.label) > maxLabel {
			maxLabel = len(b.label)
		}
		if b.value > maxVal {
			maxVal = b.value
		}
	}
	width := c.Width
	if width <= 0 {
		width = 40
	}
	for _, b := range c.bars {
		n := 0
		if maxVal > 0 {
			n = int(b.value / maxVal * float64(width))
		}
		if b.value > 0 && n == 0 {
			n = 1
		}
		if _, err := fmt.Fprintf(w, "%s %s %.3f%s\n",
			pad(b.label, maxLabel), strings.Repeat("█", n), b.value, c.Unit); err != nil {
			return err
		}
	}
	return nil
}

// String renders to a string.
func (c *BarChart) String() string {
	var sb strings.Builder
	_ = c.Render(&sb)
	return sb.String()
}

// Percent formats a ratio as a percentage string, e.g. 0.25 → "25.0%".
func Percent(r float64) string { return string(AppendPercent(nil, r)) }

// AppendPercent appends Percent(r) to dst.
//
//mvlint:hotpath
func AppendPercent(dst []byte, r float64) []byte {
	dst = jsonenc.AppendFixed(dst, r*100, 1)
	return append(dst, '%')
}

// AppendHours appends a duration as fractional hours to three decimals,
// the "%.3fh" every report quotes workload times in.
//
//mvlint:hotpath
func AppendHours(dst []byte, d time.Duration) []byte {
	dst = jsonenc.AppendFixed(dst, d.Hours(), 3)
	return append(dst, 'h')
}
