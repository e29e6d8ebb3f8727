package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number. Names and units are fixed by
// BENCHMARK.json; the smoke test holds the two lists together.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in first-set order; setting a name twice
// overwrites, so every name is emitted exactly once.
type metricSet struct {
	list []metric
	idx  map[string]int
}

func (m *metricSet) set(name string, v float64, unit string) {
	if m.idx == nil {
		m.idx = map[string]int{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if i, ok := m.idx[name]; ok {
		m.list[i] = metric{name, v, unit}
		return
	}
	m.idx[name] = len(m.list)
	m.list = append(m.list, metric{name, v, unit})
}

func (m *metricSet) get(name string) float64 {
	if i, ok := m.idx[name]; ok {
		return m.list[i].Value
	}
	return 0
}

// percentile returns the q-quantile (0..1) of xs by nearest rank, leaving
// xs in its order. Zero for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// div is a/b, or 0 when b is 0 (a layer that did no work reports 0).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user+system CPU so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// meter brackets a timed phase: wall clock, process CPU and bytes
// allocated.
type meter struct {
	t0     time.Time
	cpu0   float64
	alloc0 uint64
}

func startMeter() meter {
	runtime.GC() // every timed phase starts from a collected heap
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{t0: time.Now(), cpu0: cpuSeconds(), alloc0: ms.TotalAlloc}
}

type usage struct {
	wall, cpu float64 // seconds
	alloc     float64 // bytes
}

func (m meter) stop() usage {
	wall := time.Since(m.t0).Seconds()
	cpu := cpuSeconds() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: wall, cpu: cpu, alloc: float64(ms.TotalAlloc - m.alloc0)}
}

// endToEnd fills the seven end-to-end metrics every workload reports.
// They are whole-run values: u runs from the first request until the
// last result exists (the flush acknowledged, the last search returned),
// and the percentiles are taken over every request of the timed phase,
// so a stall of any length — a checkpoint, a collection, backpressure —
// is in them.
func endToEnd(m *metricSet, setup float64, events int64, u usage, req, query []float64) {
	m.set("setup_s", setup, "s")
	m.set("events_per_s", div(float64(events), u.wall), "1/s")
	m.set("req_p50_ms", percentile(req, 0.50), "ms")
	m.set("req_p90_ms", percentile(req, 0.90), "ms")
	m.set("query_p50_ms", percentile(query, 0.50), "ms")
	m.set("cpu_s_per_mevent", div(u.cpu*1e6, float64(events)), "s/Mevent")
	m.set("alloc_bytes_per_event", div(u.alloc, float64(events)), "B/event")
}
