// Package report renders experiment results as fixed-width text tables,
// horizontal bar charts (the Figure 5 analogue) and CSV.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string

	// cells holds every cell's text back to back, row-major. ends[i] is
	// the offset in cells one past cell i; rows[r] is the index in ends
	// one past the last cell of row r.
	cells []byte
	ends  []int32
	rows  []int32
	// Inline backing for the three slices above, so that a report-sized
	// table (a dozen rows of short cells) is one allocation; a larger
	// one spills to the heap through append.
	cellArena [320]byte
	endArena  [48]int32
	rowArena  [10]int32
}

// NewTable creates a table with the given headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row. Strings, ints, bools and values with an
// AppendString method (money.Money, units.DataSize) are formatted
// directly; anything else is formatted as fmt's %v.
func (t *Table) AddRow(cells ...any) {
	for _, c := range cells {
		t.Cell(appendValue(t.Buf(), c))
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

// Buf, Cell and EndRow build a row without boxing its values, for
// renderers on the serving path: append one cell's text to Buf() and
// hand the result to Cell, then close the row with EndRow.
//
//	t.Cell(bill.Total().AppendString(t.Buf()))
//	t.Cell(append(t.Buf(), "with views"...))
//	t.EndRow()
//
//mvlint:hotpath
func (t *Table) Buf() []byte {
	if t.cells == nil {
		t.cells = t.cellArena[:0]
	}
	return t.cells
}

// Cell commits b — Buf() with one cell's text appended — as the next
// cell of the current row.
//
//mvlint:hotpath
func (t *Table) Cell(b []byte) {
	if t.ends == nil {
		t.ends = t.endArena[:0]
	}
	t.cells = b
	t.ends = append(t.ends, int32(len(b)))
}

// EndRow closes the current row.
//
//mvlint:hotpath
func (t *Table) EndRow() {
	if t.rows == nil {
		t.rows = t.rowArena[:0]
	}
	t.rows = append(t.rows, int32(len(t.ends)))
}

// cell returns the text of cell i.
func (t *Table) cell(i int) []byte {
	start := int32(0)
	if i > 0 {
		start = t.ends[i-1]
	}
	return t.cells[start:t.ends[i]]
}

// AppendTo appends the rendered table to dst: the title line if there
// is a title, the header line, a separator, and one line per row, every
// column padded to its widest cell (in runes).
//
//mvlint:hotpath
func (t *Table) AppendTo(dst []byte) []byte {
	var widthArena [16]int
	widths := widthArena[:0]
	for _, h := range t.Headers {
		widths = append(widths, utf8.RuneCountInString(h))
	}
	first := 0
	for _, end := range t.rows {
		for i := first; i < int(end) && i-first < len(widths); i++ {
			if n := utf8.RuneCount(t.cell(i)); n > widths[i-first] {
				widths[i-first] = n
			}
		}
		first = int(end)
	}
	if t.Title != "" {
		dst = append(dst, t.Title...)
		dst = append(dst, '\n')
	}
	dst = append(dst, "| "...)
	for i, h := range t.Headers {
		if i > 0 {
			dst = append(dst, " | "...)
		}
		dst = append(dst, h...)
		dst = appendRepeat(dst, ' ', widths[i]-utf8.RuneCountInString(h))
	}
	dst = append(dst, " |\n|-"...)
	for i, w := range widths {
		if i > 0 {
			dst = append(dst, "-|-"...)
		}
		dst = appendRepeat(dst, '-', w)
	}
	dst = append(dst, "-|\n"...)
	first = 0
	for _, end := range t.rows {
		dst = append(dst, "| "...)
		// A short row is padded with empty cells; cells beyond the last
		// header are not shown.
		for col, w := range widths {
			if col > 0 {
				dst = append(dst, " | "...)
			}
			if i := first + col; i < int(end) {
				c := t.cell(i)
				dst = append(dst, c...)
				w -= utf8.RuneCount(c)
			}
			dst = appendRepeat(dst, ' ', w)
		}
		dst = append(dst, " |\n"...)
		first = int(end)
	}
	return dst
}

func appendRepeat(dst []byte, b byte, n int) []byte {
	for ; n > 0; n-- {
		dst = append(dst, b)
	}
	return dst
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	_, err := w.Write(t.AppendTo(nil))
	return err
}

// String renders to a string.
func (t *Table) String() string {
	return string(t.AppendTo(nil))
}

// Rows returns the formatted cell rows accumulated so far.
func (t *Table) Rows() [][]string {
	if len(t.rows) == 0 {
		return nil
	}
	out := make([][]string, len(t.rows))
	first := 0
	for r, end := range t.rows {
		out[r] = make([]string, 0, int(end)-first)
		for i := first; i < int(end); i++ {
			out[r] = append(out[r], string(t.cell(i)))
		}
		first = int(end)
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
	dst = strconv.AppendFloat(dst, r*100, 'f', 1, 64)
	return append(dst, '%')
}

// AppendHours appends a duration as fractional hours to three decimals,
// the "%.3fh" every report quotes workload times in.
//
//mvlint:hotpath
func AppendHours(dst []byte, d time.Duration) []byte {
	dst = strconv.AppendFloat(dst, d.Hours(), 'f', 3, 64)
	return append(dst, 'h')
}
