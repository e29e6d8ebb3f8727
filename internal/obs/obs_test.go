package obs

import (
	"math"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flowmotif_test_total", "a counter")
	c.Add(1)
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("flowmotif_test_gauge", "a gauge", L("k", "v"))
	g.Set(2.5)
	g.Set(-1.25)
	if got := g.Value(); got != -1.25 {
		t.Fatalf("gauge = %v, want -1.25", got)
	}
	// Idempotent re-registration returns the same instruments.
	if r.Counter("flowmotif_test_total", "") != c {
		t.Fatal("re-registration returned a different counter")
	}
	if r.Gauge("flowmotif_test_gauge", "", L("k", "v")) != g {
		t.Fatal("re-registration returned a different gauge")
	}
	// Label order must not matter for identity.
	a := r.Gauge("flowmotif_test_multi", "", L("a", "1"), L("b", "2"))
	b := r.Gauge("flowmotif_test_multi", "", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order changed series identity")
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
		r *Registry
	)
	c.Add(1)
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	h.Start().End()
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments returned nonzero values")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatal("nil registry returned non-nil instruments")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("flowmotif_test_seconds", "", []float64{1, 2, 4})
	// `le` semantics: an observation exactly on a bound lands in that
	// bound's bucket.
	h.Observe(0.5) // bucket le=1
	h.Observe(1)   // bucket le=1 (v <= bound)
	h.Observe(1.5) // bucket le=2
	h.Observe(4)   // bucket le=4
	h.Observe(9)   // +Inf
	s := h.Snapshot()
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 0.5+1+1.5+4+9 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

// TestHistogramObserveN pins ObserveN(v, n) against n single Observes: same
// buckets, same count, same sum (to rounding: n·v is one multiplication,
// n additions round n times), a no-op at n = 0 and on a nil histogram.
func TestHistogramObserveN(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{1, 2, 4}
	one := r.Histogram("flowmotif_test_one_seconds", "", bounds)
	many := r.Histogram("flowmotif_test_many_seconds", "", bounds)
	for _, c := range []struct {
		v float64
		n uint64
	}{{0.3, 7}, {1, 3}, {1.7, 1}, {4, 20}, {9.1, 5}, {2.5, 0}} {
		for i := uint64(0); i < c.n; i++ {
			one.Observe(c.v)
		}
		many.ObserveN(c.v, c.n)
	}
	a, b := one.Snapshot(), many.Snapshot()
	if a.Count != b.Count || a.Count != 36 {
		t.Fatalf("count: n×Observe %d, ObserveN %d, want 36", a.Count, b.Count)
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			t.Fatalf("bucket %d: n×Observe %d, ObserveN %d", i, a.Counts[i], b.Counts[i])
		}
	}
	if math.Abs(a.Sum-b.Sum) > 1e-12*a.Sum {
		t.Fatalf("sum: n×Observe %v, ObserveN %v", a.Sum, b.Sum)
	}
	var nilH *Histogram
	nilH.ObserveN(1, 3)
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 10, 4)
	if b[0] != 1e-6 {
		t.Fatalf("first bound = %v", b[0])
	}
	if last := b[len(b)-1]; last < 10 {
		t.Fatalf("last bound %v < hi", last)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not increasing at %d: %v", i, b)
		}
		ratio := b[i] / b[i-1]
		step := math.Pow(10, 0.25)
		if ratio < step*0.99 || ratio > step*1.01 {
			t.Fatalf("ratio %v at %d, want ~%v", ratio, i, step)
		}
	}
}

// TestQuantileErrorBound checks the documented bound: the quantile
// estimate is within the width of the bucket holding the true quantile.
func TestQuantileErrorBound(t *testing.T) {
	bounds := ExpBuckets(1e-3, 100, 4)
	r := NewRegistry()
	h := r.Histogram("flowmotif_test_q_seconds", "", bounds)
	// A deterministic skewed distribution over [0.001, 50).
	n := 10000
	vals := make([]float64, n)
	for i := range vals {
		u := (float64(i) + 0.5) / float64(n)
		vals[i] = 0.001 + 49.999*u*u*u
		h.Observe(vals[i])
	}
	s := h.Snapshot()
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		truth := vals[int(q*float64(n))-1]
		got := s.Quantile(q)
		// Bucket holding the truth.
		i := 0
		for i < len(bounds) && bounds[i] < truth {
			i++
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := truth
		if i < len(bounds) {
			hi = bounds[i]
		}
		width := hi - lo
		if math.Abs(got-truth) > width {
			t.Fatalf("q=%v: estimate %v vs truth %v exceeds bucket width %v", q, got, truth, width)
		}
	}
	if got := s.Quantile(0); got < 0 {
		t.Fatalf("q=0 gave %v", got)
	}
	if got := s.Quantile(1); got < s.Quantile(0.99) {
		t.Fatalf("q=1 (%v) below q=0.99 (%v)", got, s.Quantile(0.99))
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	r := NewRegistry()
	h := r.Histogram("flowmotif_test_edge_seconds", "", []float64{1, 10})
	h.Observe(500) // everything in +Inf: clamp to last finite bound
	if got := h.Snapshot().Quantile(0.5); got != 10 {
		t.Fatalf("+Inf-only quantile = %v, want 10 (clamp)", got)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines; run
// under -race this doubles as the data-race check, and the final snapshot
// must account for every observation.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("flowmotif_test_conc_seconds", "", ExpBuckets(1e-6, 1, 4))
	const (
		workers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(float64(i%1000) / 1000)
			}
		}(w)
	}
	// Concurrent snapshots must be safe (and internally consistent).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := h.Snapshot()
			var cum uint64
			for _, c := range s.Counts {
				cum += c
			}
			if cum != s.Count {
				t.Errorf("snapshot count %d != bucket sum %d", s.Count, cum)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	s := h.Snapshot()
	if s.Count != workers*perW {
		t.Fatalf("count = %d, want %d", s.Count, workers*perW)
	}
}

func TestRegistrySnapshotAndMerge(t *testing.T) {
	mk := func(watermark float64, obs ...float64) []MetricSnapshot {
		r := NewRegistry()
		r.Counter("flowmotif_events_total", "events").Add(int64(10 * watermark))
		r.Gauge("flowmotif_watermark", "wm").Set(watermark)
		h := r.Histogram("flowmotif_lag_seconds", "lag", []float64{1, 2})
		for _, v := range obs {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	a := NewAccum()
	a.Add(mk(1, 0.5, 1.5), L("member", "m1"))
	a.Add(mk(3, 1.5, 5), L("member", "m2"))
	var ctr, wm int
	for _, m := range a.Snapshots() {
		switch m.Name {
		case "flowmotif_events_total":
			ctr++
			if m.Value != 40 {
				t.Fatalf("merged counter = %v, want 40", m.Value)
			}
		case "flowmotif_watermark":
			wm++
			if len(m.Labels) != 1 || m.Labels[0].Key != "member" {
				t.Fatalf("gauge labels = %v, want member label", m.Labels)
			}
		case "flowmotif_lag_seconds":
			if m.Hist == nil || m.Hist.Count != 4 {
				t.Fatalf("merged histogram = %+v, want count 4", m.Hist)
			}
			if got := m.Hist.Counts[0]; got != 1 {
				t.Fatalf("merged bucket0 = %d, want 1", got)
			}
			if got := m.Hist.Counts[2]; got != 1 {
				t.Fatalf("merged +Inf bucket = %d, want 1", got)
			}
		}
	}
	if ctr != 1 {
		t.Fatalf("counter series merged into %d rows, want 1", ctr)
	}
	if wm != 2 {
		t.Fatalf("gauge series kept %d rows, want 2 (per member)", wm)
	}
}

func TestHistogramMergeLayoutMismatch(t *testing.T) {
	a := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []uint64{1, 0, 0}, Count: 1}
	b := HistogramSnapshot{Bounds: []float64{1, 3}, Counts: []uint64{0, 1, 0}, Count: 1}
	if err := a.Merge(b); err == nil {
		t.Fatal("merge with mismatched bounds succeeded")
	}
}

// TestRegistryConcurrentRegistration registers every kind of series from
// two goroutines while a third snapshots the registry. A series must be
// published with its instrument (under -race, a Snapshot or a second
// registration that sees it half-built is a reported race), and both
// registrations of one series must get the same instrument, or one of
// them counts into an instrument nobody reads.
func TestRegistryConcurrentRegistration(t *testing.T) {
	const n = 200
	r := NewRegistry()
	stop := make(chan struct{})
	var snapper sync.WaitGroup
	snapper.Add(1)
	go func() {
		defer snapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	var regs sync.WaitGroup
	for w := 0; w < 2; w++ {
		regs.Add(1)
		go func() {
			defer regs.Done()
			for i := 0; i < n; i++ {
				l := L("i", strconv.Itoa(i))
				r.Counter("race_events_total", "c", l).Add(1)
				r.FloatCounter("race_cost_seconds_total", "f", l).Add(0.5)
				r.Gauge("race_depth", "g", l).Add(1)
				r.Histogram("race_lag_seconds", "h", []float64{1}, l).Observe(0.5)
			}
		}()
	}
	regs.Wait()
	close(stop)
	snapper.Wait()

	snaps := r.Snapshot()
	if len(snaps) != 4*n {
		t.Fatalf("%d series registered, want %d", len(snaps), 4*n)
	}
	for _, m := range snaps {
		want := 2.0
		if m.Name == "race_cost_seconds_total" {
			want = 1
		}
		got := m.Value
		if m.Hist != nil {
			got = float64(m.Hist.Count)
		}
		if got != want {
			t.Fatalf("%s%v = %v, want %v: the two registrations got different instruments", m.Name, m.Labels, got, want)
		}
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	expectPanic("invalid name", func() { r.Counter("bad name", "") })
	expectPanic("invalid label", func() { r.Counter("ok_name", "", L("bad-key", "v")) })
	r.Counter("kind_clash", "")
	expectPanic("kind clash", func() { r.Gauge("kind_clash", "") })
	r.Histogram("bounds_clash", "", []float64{1, 2})
	expectPanic("bounds clash", func() { r.Histogram("bounds_clash", "", []float64{1, 3}) })
	expectPanic("unsorted bounds", func() { r.Histogram("bad_bounds", "", []float64{2, 1}) })
}

func TestSpan(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("flowmotif_test_span_seconds", "", nil)
	sp := h.Start()
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Fatalf("span duration %v", d)
	}
	if got := h.Snapshot().Count; got != 1 {
		t.Fatalf("span recorded %d observations, want 1", got)
	}
}
