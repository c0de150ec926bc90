package jsonenc

// Text is the sink a report renderer writes through, so that one
// renderer produces both forms of a report: the text itself (the zero
// mode: Render, String, the CLI) and the text as the inside of a JSON
// string literal (StringText), escaped as it is written rather than
// quoted in a second pass over the finished text.
//
// The two forms differ only in Newline, Str and Bytes. Everything else a
// report is made of — padding, rules, digits, the renderer's own
// literals — reads the same either way and is appended to Buf directly;
// such text must be valid UTF-8 free of what AppendString escapes
// (control bytes, " \ < > &, U+2028, U+2029).
type Text struct {
	Buf  []byte
	json bool
}

// StringText opens a JSON string literal on dst and returns the sink
// that writes its inside; Close ends the literal.
func StringText(dst []byte) Text {
	return Text{Buf: append(dst, '"'), json: true}
}

// Close returns everything written, with the literal's closing quote if
// the sink is writing one.
func (t *Text) Close() []byte {
	if t.json {
		return append(t.Buf, '"')
	}
	return t.Buf
}

// Newline ends a line.
//
//mvlint:hotpath
func (t *Text) Newline() {
	if t.json {
		t.Buf = append(t.Buf, '\\', 'n')
	} else {
		t.Buf = append(t.Buf, '\n')
	}
}

// Str writes text that may hold anything — a name from a request, a
// table cell — escaped as AppendString escapes it when the sink is
// writing a literal. s must be whole: a UTF-8 sequence split across two
// calls is two invalid ones.
//
//mvlint:hotpath
func (t *Text) Str(s string) {
	if t.json {
		t.Buf = appendEscaped(t.Buf, s)
	} else {
		t.Buf = append(t.Buf, s...)
	}
}

// Bytes is Str for a byte slice. It is kept out of line: inlined into
// another package, the call to the generic escaper is one whose
// arguments the compiler assumes escape, which would move a caller's
// stack-resident table to the heap.
//
//mvlint:hotpath
//go:noinline
func (t *Text) Bytes(b []byte) {
	if t.json {
		t.Buf = appendEscaped(t.Buf, b)
	} else {
		t.Buf = append(t.Buf, b...)
	}
}
