package money

import (
	"encoding/json"
	"fmt"

	"vmcloud/internal/jsondec"
)

// Money marshals as its display string ("$1.08") so JSON payloads stay
// human-readable and exact; it unmarshals from either that string form
// (with or without the "$") or a bare JSON number of dollars, so
// hand-written request bodies can say "budget": 25.

// MarshalJSON renders the amount as a quoted dollar string.
func (m Money) MarshalJSON() ([]byte, error) {
	return m.AppendJSON(make([]byte, 0, 24)), nil
}

// AppendJSON appends the quoted dollar string to dst. The display form
// holds only digits, '-', '$' and '.', so it needs no escaping.
//
//mvlint:hotpath
func (m Money) AppendJSON(dst []byte) []byte {
	dst = append(dst, '"')
	dst = m.AppendString(dst)
	return append(dst, '"')
}

// UnmarshalJSON parses a dollar string ("$1.08", "1.08") or a JSON number
// of dollars.
func (m *Money) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := Parse(s)
		if err != nil {
			return err
		}
		*m = v
		return nil
	}
	var f float64
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("money: cannot unmarshal %s", data)
	}
	*m = FromDollars(f)
	return nil
}

// DecodeJSON reads what UnmarshalJSON accepts from d's fast grammar: a
// dollar string or a number of dollars. An amount Parse rejects is
// declined, so that UnmarshalJSON words the rejection.
//
//mvlint:hotpath
func DecodeJSON(d *jsondec.Decoder) Money {
	if d.Peek() != '"' {
		return FromDollars(d.Float())
	}
	m, err := Parse(d.String())
	if err != nil {
		d.Decline()
	}
	return m
}
