package units

import (
	"encoding/json"
	"fmt"
)

// DataSize marshals as its display string ("500.00 GB") and unmarshals
// from either a size string ("500GB", "1.5 TB") or a bare JSON number of
// bytes. The string form rounds to two decimals, so a marshal/unmarshal
// round trip is for display, not byte-exact accounting.

// MarshalJSON renders the size as a quoted unit string.
func (s DataSize) MarshalJSON() ([]byte, error) {
	return s.AppendJSON(make([]byte, 0, 32)), nil
}

// AppendJSON appends the quoted unit string to dst. The display form
// holds only digits, '-', '.', a space and the unit letters, so it needs
// no escaping.
//
//mvlint:hotpath
func (s DataSize) AppendJSON(dst []byte) []byte {
	dst = append(dst, '"')
	dst = s.AppendString(dst)
	return append(dst, '"')
}

// UnmarshalJSON parses a size string or a JSON number of bytes.
func (s *DataSize) UnmarshalJSON(data []byte) error {
	var str string
	if err := json.Unmarshal(data, &str); err == nil {
		v, err := ParseDataSize(str)
		if err != nil {
			return err
		}
		*s = v
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("units: cannot unmarshal %s as a data size", data)
	}
	*s = DataSize(n)
	return nil
}
