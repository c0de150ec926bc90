package workload

import (
	"fmt"
	"slices"
	"strconv"

	"vmcloud/internal/jsondec"
	"vmcloud/internal/jsonenc"
)

// QueryJSON is the wire form of a Query. A query's cuboid can be named
// either by per-dimension level names ("year","country") or by the raw
// lattice point ([2,3]); when both are present the levels win. Encoding
// always emits both so responses are self-describing. The wire form
// names levels of the sales schema only.
type QueryJSON struct {
	Name      string   `json:"name,omitempty"`
	Levels    []string `json:"levels,omitempty"`
	Point     []int    `json:"point,omitempty"`
	Frequency int      `json:"frequency,omitempty"`
}

// DecodeJSON fills q from an object of d's fast grammar, as
// encoding/json fills it through the struct tags; see jsondec.
//
//mvlint:hotpath
func (q *QueryJSON) DecodeJSON(d *jsondec.Decoder) {
	var seen uint32
	for more := d.Object(); more; more = d.More('}') {
		switch d.Key() {
		case "name":
			d.Once(&seen, 0)
			q.Name = d.String()
		case "levels":
			d.Once(&seen, 1)
			q.Levels = d.Strings()
		case "point":
			d.Once(&seen, 2)
			q.Point = d.Ints()
		case "frequency":
			d.Once(&seen, 3)
			q.Frequency = d.Int()
		default:
			d.Decline()
		}
	}
}

// AppendJSON appends exactly what encoding/json writes for q. A query in
// resolved wire form — a name, the level names and point of one sales
// cuboid, a frequency — is most of every canonical key, so its bytes up
// to the frequency are copied from the sales tables (queryKey), name and
// all when it is the cuboid's paper or default name.
//
//mvlint:hotpath
func (q QueryJSON) AppendJSON(dst []byte) ([]byte, error) {
	if id, ok := sales.resolvedID(&q); ok {
		k := &sales.keys[id]
		switch q.Name {
		case k.names[0]:
			dst = append(dst, k.named[0]...)
		case k.names[1]:
			dst = append(dst, k.named[1]...)
		default:
			dst = append(dst, `{"name":`...)
			dst = jsonenc.AppendString(dst, q.Name)
			dst = append(dst, k.tail...)
		}
		dst = strconv.AppendInt(dst, int64(q.Frequency), 10)
		return append(dst, '}'), nil
	}
	mark := len(dst)
	if q.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = jsonenc.AppendString(dst, q.Name)
	}
	if len(q.Levels) > 0 {
		dst = append(dst, `,"levels":`...)
		dst = jsonenc.AppendStrings(dst, q.Levels)
	}
	if len(q.Point) > 0 {
		dst = append(dst, `,"point":`...)
		dst = jsonenc.AppendInts(dst, q.Point)
	}
	if q.Frequency != 0 {
		dst = append(dst, `,"frequency":`...)
		dst = strconv.AppendInt(dst, int64(q.Frequency), 10)
	}
	return jsonenc.EndObject(dst, mark), nil
}

// resolvedID reports the cuboid of a query in resolved wire form: one
// with a name and a frequency, whose point is a sales cuboid's and whose
// level names are that cuboid's.
func (t *salesTables) resolvedID(q *QueryJSON) (int, bool) {
	if q.Name == "" || q.Frequency == 0 {
		return 0, false
	}
	id, err := t.lat.ID(q.Point)
	if err != nil || !slices.Equal(q.Levels, t.levels[id]) {
		return 0, false
	}
	return id, true
}

// JSON renders the workload in wire form, with the sales schema's level
// names. The level slices are the sales tables' own: read-only.
func (w Workload) JSON() []QueryJSON { return w.wire(&sales) }

func (w Workload) wire(t *salesTables) []QueryJSON {
	out := make([]QueryJSON, len(w.Queries))
	for i, q := range w.Queries {
		out[i] = QueryJSON{Name: q.Name, Point: q.Point, Frequency: q.Frequency}
		if id, err := t.lat.ID(q.Point); err == nil {
			out[i].Levels = t.levels[id]
		}
	}
	return out
}

// FromJSON resolves a wire workload against the sales schema and
// validates it. Frequencies default to 1. Nothing here depends on the
// size of the dataset, so nothing is built: names and points come from
// the sales tables (the points shared, read-only), and the tables'
// lattice words the rejections.
func FromJSON(qs []QueryJSON) (Workload, error) {
	if len(qs) == 0 {
		return Workload{}, fmt.Errorf("workload: empty workload")
	}
	w := Workload{Queries: make([]Query, len(qs))}
	for i, qj := range qs {
		var id int
		var err error
		switch {
		case len(qj.Levels) > 0:
			id, err = sales.lat.IDOf(qj.Levels...)
		case len(qj.Point) > 0:
			id, err = sales.lat.ID(qj.Point)
		default:
			err = fmt.Errorf("no levels or point given")
		}
		if err != nil {
			return Workload{}, fmt.Errorf("workload: query %d: %w", i, err)
		}
		q := Query{Name: qj.Name, Point: sales.lat.NodeByID(id).Point, Frequency: qj.Frequency}
		if q.Frequency == 0 {
			q.Frequency = 1
		}
		if q.Name == "" {
			q.Name = sales.names[id]
		}
		w.Queries[i] = q
	}
	if err := w.Validate(sales.lat); err != nil {
		return Workload{}, err
	}
	return w, nil
}
