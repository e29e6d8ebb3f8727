package obs

import (
	"math"
	"strings"
	"testing"
)

func TestFloatCounter(t *testing.T) {
	r := NewRegistry()
	c := r.FloatCounter("work_seconds_total", "h", L("sub", "a"))
	c.Add(0.25)
	c.Add(0.5)
	again := r.FloatCounter("work_seconds_total", "h", L("sub", "a"))
	again.Add(0.25)
	if got := c.Value(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("FloatCounter value = %v, want 1.0 (idempotent registration must share state)", got)
	}
	// Negative and NaN deltas are dropped: a counter is monotone.
	c.Add(-3)
	c.Add(math.NaN())
	if got := c.Value(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("FloatCounter after bad deltas = %v, want 1.0", got)
	}
	snaps := r.Snapshot()
	if len(snaps) != 1 || snaps[0].Kind != KindCounter || snaps[0].Value != c.Value() {
		t.Fatalf("snapshot = %+v, want one counter series with value %v", snaps, c.Value())
	}
	var nilC *FloatCounter
	nilC.Add(1) // must not panic
}

func TestFloatCounterIntMutualExclusion(t *testing.T) {
	r := NewRegistry()
	r.Counter("n_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic when re-registering an int counter as a FloatCounter")
		}
	}()
	r.FloatCounter("n_total", "h")
}

func TestGaugeAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight", "h")
	g.Add(1)
	g.Add(1)
	g.Add(-1)
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge after +1+1-1 = %v, want 1", got)
	}
	var nilG *Gauge
	nilG.Add(1) // must not panic
}

func TestBurnRate(t *testing.T) {
	cases := []struct {
		bad, total, target, want float64
	}{
		{0, 100, 0.99, 0},  // no bad observations: no burn
		{1, 0, 0.99, 0},    // empty window: no burn
		{1, 100, 0.99, 1},  // exactly at budget
		{5, 100, 0.99, 5},  // 5x budget
		{10, 100, 0.9, 1},  // wider budget
		{-1, 100, 0.99, 0}, // counter-reset artifact clamps to 0
	}
	for _, c := range cases {
		if got := BurnRate(c.bad, c.total, c.target); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("BurnRate(%v, %v, %v) = %v, want %v", c.bad, c.total, c.target, got, c.want)
		}
	}
	if got := BurnRate(1, 100, 1.0); !math.IsInf(got, 1) {
		t.Errorf("BurnRate with zero budget = %v, want +Inf", got)
	}
}

func TestCountAtMostAndWindowDelta(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lag", "h", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	snap := *r.Snapshot()[0].Hist
	if got := snap.CountAtMost(0.1); got != 1 {
		t.Fatalf("CountAtMost(0.1) = %d, want 1", got)
	}
	if got := snap.CountAtMost(1); got != 3 {
		t.Fatalf("CountAtMost(1) = %d, want 3", got)
	}
	// A bound between bucket edges rounds up to the next edge (the bucket
	// resolution is the error bar).
	if got := snap.CountAtMost(0.5); got != 3 {
		t.Fatalf("CountAtMost(0.5) = %d, want 3 (conservative: next bucket edge)", got)
	}
	if got := snap.CountAtMost(100); got != 5 {
		t.Fatalf("CountAtMost(100) = %d, want 5", got)
	}

	earlier := snap
	for _, v := range []float64{0.5, 5, 5} {
		h.Observe(v)
	}
	later := *r.Snapshot()[0].Hist
	good, total := later.WindowDelta(earlier, 1)
	if good != 1 || total != 3 {
		t.Fatalf("WindowDelta = (%v, %v), want (1, 3)", good, total)
	}
	// Counter reset (earlier ahead): degrade to the newer snapshot alone.
	good, total = earlier.WindowDelta(later, 1)
	if good != 3 || total != 5 {
		t.Fatalf("WindowDelta after reset = (%v, %v), want (3, 5)", good, total)
	}
}

// TestAccumGaugeLabels is the cluster-exposition contract: gauges from
// different sources stay distinguishable under the per-source label while
// counters (FloatCounters among them) sum under their original labels.
func TestAccumGaugeLabels(t *testing.T) {
	r1 := NewRegistry()
	r1.Gauge("inflight", "h", L("endpoint", "ingest")).Set(3)
	r1.FloatCounter("cost_total", "h", L("sub", "s1")).Add(1.5)
	r2 := NewRegistry()
	r2.Gauge("inflight", "h", L("endpoint", "ingest")).Set(5)
	r2.FloatCounter("cost_total", "h", L("sub", "s1")).Add(2.5)

	acc := NewAccum()
	acc.Add(r1.Snapshot(), L("member", "m1"))
	acc.Add(r2.Snapshot(), L("member", "m2"))

	var gauges, counters []MetricSnapshot
	for _, m := range acc.Snapshots() {
		switch m.Kind {
		case KindGauge:
			gauges = append(gauges, m)
		case KindCounter:
			counters = append(counters, m)
		}
	}
	if len(gauges) != 2 {
		t.Fatalf("got %d gauge series, want 2 (one per member)", len(gauges))
	}
	members := map[string]float64{}
	for _, g := range gauges {
		var member string
		for _, l := range g.Labels {
			if l.Key == "member" {
				member = l.Value
			}
		}
		members[member] = g.Value
	}
	if members["m1"] != 3 || members["m2"] != 5 {
		t.Fatalf("per-member gauge values = %v, want m1:3 m2:5", members)
	}
	if len(counters) != 1 {
		t.Fatalf("got %d counter series, want 1 (summed across members)", len(counters))
	}
	if got := counters[0].Value; math.Abs(got-4.0) > 1e-12 {
		t.Fatalf("summed counter = %v, want 4.0", got)
	}
	for _, l := range counters[0].Labels {
		if l.Key == "member" {
			t.Fatalf("counter series gained a member label: %+v", counters[0].Labels)
		}
	}
}

func TestFloatCounterPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.FloatCounter("flowmotif_sub_cost_seconds_total", "Attributed cost.", L("sub", "a"), L("shape", "M(3,3)")).Add(0.125)
	var sb strings.Builder
	if err := WritePrometheus(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "# TYPE flowmotif_sub_cost_seconds_total counter") {
		t.Fatalf("exposition missing counter TYPE line:\n%s", text)
	}
	if !strings.Contains(text, `flowmotif_sub_cost_seconds_total{shape="M(3,3)",sub="a"} 0.125`) {
		t.Fatalf("exposition missing sample line:\n%s", text)
	}
}
