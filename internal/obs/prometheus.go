package obs

// Prometheus text exposition (format 0.0.4), written by hand — this
// package takes no dependencies. WritePrometheus renders a snapshot set
// (so a coordinator can merge member snapshots first); the validating
// parser that tests read it back with is obstest.ParseExposition.

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders snaps in Prometheus text format: one `# HELP` /
// `# TYPE` header per family (first-seen order), label values escaped,
// histogram buckets cumulative with a terminal `+Inf`. Series whose kind
// conflicts with an earlier series of the same name are skipped so the
// output always parses.
func WritePrometheus(w io.Writer, snaps []MetricSnapshot) error {
	type family struct {
		name string
		kind string
		help string
		ms   []MetricSnapshot
	}
	var order []string
	fams := map[string]*family{}
	for _, m := range snaps {
		f := fams[m.Name]
		if f == nil {
			f = &family{name: m.Name, kind: m.Kind, help: m.Help}
			fams[m.Name] = f
			order = append(order, m.Name)
		}
		if f.kind != m.Kind {
			continue
		}
		if f.help == "" {
			f.help = m.Help
		}
		f.ms = append(f.ms, m)
	}
	for _, name := range order {
		f := fams[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind); err != nil {
			return err
		}
		for _, m := range f.ms {
			if err := writeSeries(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, m MetricSnapshot) error {
	if m.Kind != KindHistogram {
		_, err := fmt.Fprintf(w, "%s%s %s\n", m.Name, labelSet(m.Labels, "", 0), formatValue(m.Value))
		return err
	}
	h := m.Hist
	if h == nil {
		h = &HistogramSnapshot{}
	}
	var cum uint64
	for i, b := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, labelSet(m.Labels, "le", b), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, labelSet(m.Labels, "le", math.Inf(1)), h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.Name, labelSet(m.Labels, "", 0), formatValue(h.Sum)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_count%s %d\n", m.Name, labelSet(m.Labels, "", 0), h.Count); err != nil {
		return err
	}
	// The 0.0.4 text format has no exemplar syntax (that is OpenMetrics),
	// so the exemplar rides as a free-form comment — ignored by parsers
	// (including obstest.ParseExposition), read by humans chasing a quantile to a
	// concrete trace in /debug/traces.
	if h.Exemplar != nil && h.Exemplar.Trace != "" {
		if _, err := fmt.Fprintf(w, "# EXEMPLAR %s%s trace_id=%s value=%s\n",
			m.Name, labelSet(m.Labels, "", 0), h.Exemplar.Trace, formatValue(h.Exemplar.Value)); err != nil {
			return err
		}
	}
	return nil
}

// labelSet renders `{k="v",...}` (empty string when there are no labels),
// optionally appending an `le` bound.
func labelSet(labels []Label, le string, bound float64) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(le)
		b.WriteString(`="`)
		b.WriteString(formatBound(bound))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
