package report

import "encoding/json"

// tableJSON is the wire form of a Table: the already-formatted cells, so
// API consumers can display a table without reimplementing the renderer.
type tableJSON struct {
	Title   string     `json:"title,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON renders the table as {title, headers, rows} with the cells
// already %v-formatted.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.Rows()
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(tableJSON{Title: t.Title, Headers: t.Headers, Rows: rows})
}
