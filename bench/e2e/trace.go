package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side span: a call into a layer's public API (or
// the loop that makes such calls), timed from outside the program. Req
// is the batch sequence number for spans that belong to one request, 0
// otherwise. Times are nanoseconds since the tracer was created.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: root
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and reads no clock: the untraced run pays a nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent int32, req int64) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn under a span and returns the seconds it took; on a nil
// tracer it only times.
func (t *tracer) timed(name string, parent int32, req int64, fn func() error) (float64, error) {
	sp := t.start(name, parent, req)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0).Seconds()
	t.end(sp)
	return d, err
}

// traceFile is what a traced run writes and -report reads back.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Metrics  []metric `json:"metrics"`
	Spans    []span   `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// selfRow aggregates the spans of one name.
type selfRow struct {
	Name  string
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // summed durations minus the part child spans cover
}

// selfTimes computes, per span name, total and self time. A child's
// interval is clipped to its parent's, and children are the caller's
// sequential calls, so covered time is the plain sum of clipped children.
func selfTimes(spans []span) []selfRow {
	covered := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.Parent <= 0 || int(s.Parent) > len(spans) {
			continue
		}
		p := spans[s.Parent-1]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	byName := map[string]*selfRow{}
	for _, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			byName[s.Name] = r
		}
		d := s.End - s.Start
		r.Count++
		r.Total += time.Duration(d)
		r.Self += time.Duration(max(d-covered[s.ID], 0))
	}
	rows := make([]selfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	return rows
}

// report renders a saved trace: the span self-time table, the per-layer
// metric table, and the layer budget's conservation check.
func report(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "trace %s: workload %s, seed %d, %d spans\n\n", path, tf.Workload, tf.Seed, len(tf.Spans))
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range selfTimes(tf.Spans) {
		fmt.Fprintf(w, "%-28s %8d %12.2f %12.2f\n", r.Name, r.Count, ms(r.Total), ms(r.Self))
	}
	fmt.Fprintln(w)
	var ms metricSet
	for _, m := range tf.Metrics {
		ms.set(m.Name, m.Value, m.Unit)
	}
	printMetrics(w, ms.list)
	if _, ok := ms.idx["budget.wall_s"]; ok {
		fmt.Fprintf(w, "\nbudget over the replayed batches: wire floor %.3fs + engine %.3fs + WAL %.3fs = %.3fs against %.3fs of request time: residual %.1f%%\n",
			ms.get("budget.wire_s"), ms.get("budget.engine_s"), ms.get("budget.store_s"),
			ms.get("budget.wire_s")+ms.get("budget.engine_s")+ms.get("budget.store_s"),
			ms.get("budget.wall_s"), 100*ms.get("budget.residual_frac"))
	}
	return nil
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
}
