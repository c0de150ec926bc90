package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the read side of the exposition format: a small parser
// and validator for Prometheus text format 0.0.4. It exists for the
// metrics-format tests: CI validates every /metrics render, in-process
// and from a live daemon, and the server's tests read their counters
// back through it.

// Sample is one parsed sample line.
type Sample struct {
	// Name is the sample name as written, including any _bucket/_sum/
	// _count suffix.
	Name string
	// Labels holds the parsed label pairs (unescaped values).
	Labels map[string]string
	// Value is the sample value; histogram bucket `le` bounds stay in
	// Labels.
	Value float64
}

// Label returns the value of a label, or "" if absent.
func (s Sample) Label(k string) string { return s.Labels[k] }

// ParseText parses a Prometheus text-format payload into samples,
// ignoring comments and blank lines. It is strict about line shape
// (name, optional label braces, value) but does not cross-check
// families; use ValidateText for the format invariants.
func ParseText(b []byte) ([]Sample, error) {
	var out []Sample
	for lineNo, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value separator in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote := false
		for i := 1; i < len(rest); i++ {
			switch {
			case inQuote && rest[i] == '\\':
				i++ // skip escaped char
			case rest[i] == '"':
				inQuote = !inQuote
			case !inQuote && rest[i] == '}':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label braces in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	// A trailing timestamp is legal in the format; we never emit one, so
	// take the first field as the value and reject extra fields.
	fields := strings.Fields(rest)
	if len(fields) != 1 {
		return s, fmt.Errorf("want exactly one value field in %q, got %d", line, len(fields))
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(f string) (float64, error) {
	switch f {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(f, 64)
}

func parseLabels(interior string, into map[string]string) error {
	i := 0
	for i < len(interior) {
		eq := strings.IndexByte(interior[i:], '=')
		if eq < 0 {
			return fmt.Errorf("label pair without '=' in %q", interior)
		}
		key := interior[i : i+eq]
		if !validLabelName(key) {
			return fmt.Errorf("invalid label name %q", key)
		}
		i += eq + 1
		if i >= len(interior) || interior[i] != '"' {
			return fmt.Errorf("unquoted label value for %q", key)
		}
		i++
		var val []byte
		for {
			if i >= len(interior) {
				return fmt.Errorf("unterminated label value for %q", key)
			}
			c := interior[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(interior) {
					return fmt.Errorf("dangling escape in label %q", key)
				}
				switch interior[i+1] {
				case '\\':
					val = append(val, '\\')
				case '"':
					val = append(val, '"')
				case 'n':
					val = append(val, '\n')
				default:
					return fmt.Errorf("bad escape \\%c in label %q", interior[i+1], key)
				}
				i += 2
				continue
			}
			val = append(val, c)
			i++
		}
		if _, dup := into[key]; dup {
			return fmt.Errorf("duplicate label %q", key)
		}
		into[key] = string(val)
		if i < len(interior) {
			if interior[i] != ',' {
				return fmt.Errorf("expected ',' between labels, got %q", interior[i:])
			}
			i++
		}
	}
	return nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// seriesKey identifies one series within a family by its non-le labels.
func seriesKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}

// baseName strips a histogram sample suffix, returning the family name.
func baseName(name string) (base, suffix string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf), suf
		}
	}
	return name, ""
}

// ValidateText checks a payload against the exposition-format contract:
// every line parses; every sample family has a preceding # TYPE; sample
// names match their family's type (histogram samples use _bucket/_sum/
// _count, scalar families use the bare name); histogram bucket counts
// are cumulative and non-decreasing in `le` order; every histogram
// series has a +Inf bucket, a _sum and a _count; and +Inf == _count.
// Returns the parsed samples on success.
func ValidateText(b []byte) ([]Sample, error) {
	types := map[string]string{}
	for lineNo, line := range strings.Split(string(b), "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "# TYPE ") {
			continue
		}
		fields := strings.Fields(trimmed)
		if len(fields) != 4 {
			return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo+1, trimmed)
		}
		name, typ := fields[2], fields[3]
		switch typ {
		case "counter", "gauge", "histogram":
		default:
			return nil, fmt.Errorf("line %d: unknown type %q", lineNo+1, typ)
		}
		if _, dup := types[name]; dup {
			return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo+1, name)
		}
		types[name] = typ
	}

	samples, err := ParseText(b)
	if err != nil {
		return nil, err
	}

	// Histogram bookkeeping per (family, series).
	type histSeries struct {
		buckets []struct {
			le  float64
			cum float64
		}
		sum, count       float64
		hasSum, hasCount bool
		hasInf           bool
		inf              float64
	}
	hists := map[string]map[string]*histSeries{}

	for _, s := range samples {
		base, suffix := baseName(s.Name)
		typ, typed := types[s.Name]
		baseTyp, baseTyped := types[base]
		switch {
		case typed && (typ == "counter" || typ == "gauge"):
			// A scalar family whose name happens to end in _count/_sum is
			// fine: its own TYPE line wins over the histogram suffix rule.
			if s.Value < 0 && typ == "counter" {
				return nil, fmt.Errorf("counter %s has negative value %g", s.Name, s.Value)
			}
		case baseTyped && baseTyp == "histogram" && suffix != "":
			m := hists[base]
			if m == nil {
				m = map[string]*histSeries{}
				hists[base] = m
			}
			key := seriesKey(s.Labels)
			hs := m[key]
			if hs == nil {
				hs = &histSeries{}
				m[key] = hs
			}
			switch suffix {
			case "_bucket":
				le := s.Label("le")
				if le == "" {
					return nil, fmt.Errorf("histogram bucket %s missing le label", s.Name)
				}
				bound := math.Inf(1)
				if le != "+Inf" {
					bound, err = strconv.ParseFloat(le, 64)
					if err != nil {
						return nil, fmt.Errorf("histogram %s: bad le %q", base, le)
					}
				} else {
					hs.hasInf = true
					hs.inf = s.Value
				}
				hs.buckets = append(hs.buckets, struct{ le, cum float64 }{bound, s.Value})
			case "_sum":
				hs.sum, hs.hasSum = s.Value, true
			case "_count":
				hs.count, hs.hasCount = s.Value, true
			}
		case typed && typ == "histogram":
			return nil, fmt.Errorf("histogram family %q has bare sample (want _bucket/_sum/_count)", s.Name)
		default:
			return nil, fmt.Errorf("sample %q has no TYPE line", s.Name)
		}
	}

	for base, m := range hists {
		for key, hs := range m {
			if !hs.hasInf {
				return nil, fmt.Errorf("histogram %s{%s} missing +Inf bucket", base, key)
			}
			if !hs.hasSum || !hs.hasCount {
				return nil, fmt.Errorf("histogram %s{%s} missing _sum or _count", base, key)
			}
			for i := 1; i < len(hs.buckets); i++ {
				if hs.buckets[i].le <= hs.buckets[i-1].le {
					return nil, fmt.Errorf("histogram %s{%s}: le bounds not ascending", base, key)
				}
				if hs.buckets[i].cum < hs.buckets[i-1].cum {
					return nil, fmt.Errorf("histogram %s{%s}: bucket counts not cumulative at le=%g", base, key, hs.buckets[i].le)
				}
			}
			if hs.inf != hs.count {
				return nil, fmt.Errorf("histogram %s{%s}: +Inf bucket %g != _count %g", base, key, hs.inf, hs.count)
			}
		}
	}
	return samples, nil
}
