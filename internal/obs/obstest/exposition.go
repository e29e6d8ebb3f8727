// Package obstest holds the checks tests use to read back what package
// obs produces: ParseExposition, a validating parser for the Prometheus
// text exposition WritePrometheus writes, and ValidateSpans, the
// integrity check of a stitched trace. Only _test.go files import it.
package obstest

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ExpoSeries is one parsed sample line.
type ExpoSeries struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ExpoFamily is one parsed metric family: the `# TYPE` declaration and
// every sample belonging to it (for histograms that includes the _bucket,
// _sum, and _count samples).
type ExpoFamily struct {
	Name   string
	Type   string
	Series []ExpoSeries
}

// ParseExposition parses and validates Prometheus text exposition:
// well-formed sample lines, unique `# TYPE` per family declared before
// its samples, valid names and label syntax, and — for histograms —
// cumulative bucket counts in `le` order with a terminal `+Inf` bucket
// matching `_count`, plus `_sum`/`_count` present per label set. Returns
// the families keyed by name.
func ParseExposition(data string) (map[string]*ExpoFamily, error) {
	fams := map[string]*ExpoFamily{}
	for ln, line := range strings.Split(data, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		lineNo := ln + 1
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "TYPE" && fields[1] != "HELP") {
				continue // free-form comment
			}
			name := fields[2]
			if !validName(name) {
				return nil, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
			}
			if fields[1] == "HELP" {
				continue
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("line %d: malformed TYPE line", lineNo)
			}
			typ := fields[3]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
			}
			if fams[name] != nil {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
			}
			fams[name] = &ExpoFamily{Name: name, Type: typ}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		f := familyFor(fams, s.Name)
		if f == nil {
			return nil, fmt.Errorf("line %d: sample %q precedes its TYPE declaration", lineNo, s.Name)
		}
		f.Series = append(f.Series, s)
	}
	for _, f := range fams {
		if f.Type == "histogram" {
			if err := validateHistogram(f); err != nil {
				return nil, fmt.Errorf("histogram %s: %v", f.Name, err)
			}
		}
	}
	return fams, nil
}

// familyFor resolves a sample name to its declared family, accounting for
// histogram sample suffixes.
func familyFor(fams map[string]*ExpoFamily, name string) *ExpoFamily {
	if f := fams[name]; f != nil {
		return f
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if f := fams[base]; f != nil && (f.Type == "histogram" || f.Type == "summary") {
				return f
			}
		}
	}
	return nil
}

func parseSample(line string) (ExpoSeries, error) {
	s := ExpoSeries{Labels: map[string]string{}}
	i := 0
	for i < len(line) && isNameChar(line[i], i) {
		i++
	}
	s.Name = line[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	if i < len(line) && line[i] == '{' {
		rest, err := parseLabelPairs(line[i+1:], s.Labels)
		if err != nil {
			return s, err
		}
		line = rest
	} else {
		line = line[i:]
	}
	line = strings.TrimLeft(line, " \t")
	fields := strings.Fields(line)
	if len(fields) < 1 || len(fields) > 2 { // optional timestamp
		return s, fmt.Errorf("malformed sample value %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

func isNameChar(c byte, pos int) bool {
	if c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
		return true
	}
	return pos > 0 && c >= '0' && c <= '9'
}

// parseLabelPairs consumes `k="v",...}` and returns the remainder after
// the closing brace.
func parseLabelPairs(s string, out map[string]string) (string, error) {
	for {
		s = strings.TrimLeft(s, " \t")
		if len(s) > 0 && s[0] == '}' {
			return s[1:], nil
		}
		i := 0
		for i < len(s) && isNameChar(s[i], i) {
			i++
		}
		key := s[:i]
		if !validName(key) {
			return s, fmt.Errorf("invalid label name %q", key)
		}
		s = strings.TrimLeft(s[i:], " \t")
		if len(s) == 0 || s[0] != '=' {
			return s, fmt.Errorf("expected '=' after label %q", key)
		}
		s = strings.TrimLeft(s[1:], " \t")
		if len(s) == 0 || s[0] != '"' {
			return s, fmt.Errorf("expected quoted value for label %q", key)
		}
		var val strings.Builder
		i = 1
		for {
			if i >= len(s) {
				return s, fmt.Errorf("unterminated value for label %q", key)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return s, fmt.Errorf("dangling escape in label %q", key)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return s, fmt.Errorf("invalid escape \\%c in label %q", s[i+1], key)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := out[key]; dup {
			return s, fmt.Errorf("duplicate label %q", key)
		}
		out[key] = val.String()
		s = strings.TrimLeft(s[i:], " \t")
		if len(s) > 0 && s[0] == ',' {
			s = s[1:]
			continue
		}
		if len(s) > 0 && s[0] == '}' {
			return s[1:], nil
		}
		return s, fmt.Errorf("expected ',' or '}' after label %q", key)
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// validateHistogram checks, per label set, that _bucket counts are
// cumulative in ascending `le` order, that the terminal bucket is `+Inf`,
// and that its value matches the _count sample.
func validateHistogram(f *ExpoFamily) error {
	type bucket struct {
		le float64
		v  float64
	}
	buckets := map[string][]bucket{}
	counts := map[string]float64{}
	sums := map[string]bool{}
	for _, s := range f.Series {
		switch s.Name {
		case f.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("bucket sample without le label")
			}
			b, err := parseValue(le)
			if err != nil {
				return fmt.Errorf("bad le value %q", le)
			}
			sig := labelSig(s.Labels, "le")
			buckets[sig] = append(buckets[sig], bucket{le: b, v: s.Value})
		case f.Name + "_count":
			counts[labelSig(s.Labels, "")] = s.Value
		case f.Name + "_sum":
			sums[labelSig(s.Labels, "")] = true
		default:
			return fmt.Errorf("unexpected sample %q", s.Name)
		}
	}
	if len(buckets) == 0 {
		return fmt.Errorf("no bucket samples")
	}
	for sig, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		last := math.Inf(-1)
		prev := -1.0
		for _, b := range bs {
			if b.le == last {
				return fmt.Errorf("duplicate le=%v bucket (labels %s)", b.le, sig)
			}
			last = b.le
			if b.v < prev {
				return fmt.Errorf("non-cumulative buckets at le=%v (labels %s)", b.le, sig)
			}
			prev = b.v
		}
		if !math.IsInf(bs[len(bs)-1].le, 1) {
			return fmt.Errorf("missing +Inf bucket (labels %s)", sig)
		}
		cnt, ok := counts[sig]
		if !ok {
			return fmt.Errorf("missing _count sample (labels %s)", sig)
		}
		if bs[len(bs)-1].v != cnt {
			return fmt.Errorf("+Inf bucket %v != _count %v (labels %s)", bs[len(bs)-1].v, cnt, sig)
		}
		if !sums[sig] {
			return fmt.Errorf("missing _sum sample (labels %s)", sig)
		}
	}
	return nil
}

// labelSig is a canonical signature of a label map, optionally excluding
// one key.
func labelSig(labels map[string]string, except string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != except {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// validName reports whether s is a valid metric or label name. The
// parser checks names itself rather than through the writer's own check,
// so a writer that emitted a bad name would not pass unnoticed.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
