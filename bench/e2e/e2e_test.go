package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"flowmotif/internal/core"
	"flowmotif/internal/temporal"
)

// The smoke test runs every workload at a tiny fixed size. Run it from
// this module: cd bench && go test ./...

const benchmarkJSON = "../../BENCHMARK.json"

// smokeSize is the fixed work per workload: events, or searches on
// batch_paper.
var smokeSize = map[string]int{
	"stream_shared":  4 * batchSize,
	"stream_catalog": 4 * batchSize,
	"cluster_mixed":  16 * batchSize,
	"batch_paper":    20,
}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	return options{workload: workload, seed: 1, events: smokeSize[workload], trace: trace, outDir: t.TempDir()}
}

func mustRun(t *testing.T, o options) *result {
	t.Helper()
	w, ok := findWorkload(o.workload)
	if !ok {
		t.Fatalf("no workload %q", o.workload)
	}
	res, err := w.run(o)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	return res
}

// scheduleDependent are the count metrics that depend on how goroutines
// interleave, not only on the inputs.
var scheduleDependent = map[string]bool{
	"cluster.backpressure_waits": true,
	"cluster.log_entries_max":    true,
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(workloads()))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	endToEnd := map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	perLayer := map[string]string{}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	check := func(t *testing.T, got []metric, want map[string]string) {
		t.Helper()
		seen := map[string]bool{}
		for _, m := range got {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %s emitted twice", m.Name)
			}
			seen[m.Name] = true
			if unit, ok := want[m.Name]; !ok {
				t.Errorf("metric %s is not in BENCHMARK.json", m.Name)
			} else if unit != m.Unit {
				t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, m.Unit, unit)
			}
		}
		for name := range want {
			if !seen[name] {
				t.Errorf("metric %s of BENCHMARK.json was not emitted", name)
			}
		}
	}
	for _, wl := range bf.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			plain := mustRun(t, smokeOptions(t, wl.Name, false))
			if plain.failed != 0 {
				t.Fatalf("ops_failed = %d: %v", plain.failed, plain.errs)
			}
			check(t, plain.metrics.list, endToEnd)
			for _, m := range plain.metrics.list {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, m.Value)
				}
			}

			first := mustRun(t, smokeOptions(t, wl.Name, true))
			if first.failed != 0 {
				t.Fatalf("traced ops_failed = %d: %v", first.failed, first.errs)
			}
			check(t, first.metrics.list, perLayer)
			check(t, first.endToEnd.list, endToEnd)
			// The engine's counters must repeat exactly on the same inputs
			// (batch_paper has no engine; its answers repeat by the
			// later-pass check in measure).
			if wl.Name != "batch_paper" {
				second := mustRun(t, smokeOptions(t, wl.Name, true))
				for _, m := range first.metrics.list {
					if m.Unit == "count" && !scheduleDependent[m.Name] && second.metrics.get(m.Name) != m.Value {
						t.Errorf("count %s differs between two runs of the same inputs: %v, %v", m.Name, m.Value, second.metrics.get(m.Name))
					}
				}
			}
			switch wl.Name {
			case "stream_shared":
				if g := first.metrics.get("stream.plan_groups"); g != 3 {
					t.Errorf("stream.plan_groups = %v, want 3", g)
				}
			case "stream_catalog":
				if s := first.metrics.get("stream.matches_shared"); s != 0 {
					t.Errorf("stream.matches_shared = %v, want 0", s)
				}
			}
			if len(first.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestCorruptReferenceFails runs a workload, corrupts every entry of its
// reference and checks that verification then fails and that the process
// would exit non-zero.
func TestCorruptReferenceFails(t *testing.T) {
	t.Parallel()
	spec := servingWorkloads[0]
	spec.warmBatches = 4
	o := smokeOptions(t, spec.name, false)
	rig, err := setupServing(spec, o, o.events+spec.warmBatches*batchSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	run := rig.measure(nil, 0, o.events/batchSize, nil)
	ref, err := streamReference(rig.subs, rig.ingested(run))
	if err != nil {
		t.Fatal(err)
	}
	rig.verify(run, ref)
	if run.failed != 0 {
		t.Fatalf("run against its own reference failed: %v", run.errs)
	}
	for id, sub := range ref.Subs {
		sub.Detections++
		sub.Top = append([]float64{1e9}, sub.Top...)
		ref.Subs[id] = sub
	}
	rig.verify(run, ref)
	if run.failed == 0 {
		t.Fatal("run against a corrupted reference reported no failed operation")
	}
	var out bytes.Buffer
	if emit(&out, &result{attempted: run.attempted, failed: run.failed, errs: run.errs}) {
		t.Error("emit reported a correct run (the process would exit 0)")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line outputLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil || line.Correct || line.Failed == 0 {
		t.Errorf("last output line %q: err %v, want correct=false and failed>0", lines[len(lines)-1], err)
	}
}

// TestReferenceSharesEnumerationAcrossPhi checks the shortcut the stream
// reference takes — one enumeration at the smallest φ of a (shape, δ)
// group — against one whole-graph core.Count per subscription.
func TestReferenceSharesEnumerationAcrossPhi(t *testing.T) {
	spec := servingWorkloads[0]
	evs, err := bitcoinStream(rand.New(rand.NewSource(3)), streamNodes, 3*refSliceEvents/2, spec.perUnit, bitcoinDataset)
	if err != nil {
		t.Fatal(err)
	}
	subs := spec.subs()
	ref, err := streamReference(subs, evs)
	if err != nil {
		t.Fatal(err)
	}
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, s := range subs {
		want, _, err := core.Count(g, s.Motif, core.Params{Delta: s.Delta, Phi: s.Phi})
		if err != nil {
			t.Fatal(err)
		}
		if got := ref.Subs[s.ID].Detections; got != want {
			t.Errorf("%s: reference %d, core.Count %d", s.ID, got, want)
		}
		if want > 0 {
			nonzero++
		}
	}
	if nonzero < len(subs)/2 {
		t.Errorf("only %d of %d subscriptions have instances: the check is too weak", nonzero, len(subs))
	}
}

func TestInputsAreSeededAndOrdered(t *testing.T) {
	stream := func(seed int64) []temporal.Event {
		evs, err := bitcoinStream(rand.New(rand.NewSource(seed)), streamNodes, 20000, 1.5, bitcoinDataset)
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	a, b, c := stream(7), stream(7), stream(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("the same seed gave different event %d", i)
		}
		if i > 0 && a[i].T < a[i-1].T {
			t.Fatalf("event %d is out of time order", i)
		}
		if a[i].F*64 != float64(int64(a[i].F*64)) || a[i].F <= 0 {
			t.Fatalf("flow %v is not a positive multiple of 1/64", a[i].F)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("seeds 7 and 8 gave the same stream")
	}
	if perUnit := float64(len(a)) / float64(a[len(a)-1].T-a[0].T); perUnit < 1.3 || perUnit > 1.7 {
		t.Errorf("stream has %.2f events per time unit, want about 1.5", perUnit)
	}
}

// TestStreamGoesRound checks that a run's stream stays in time order
// across the seam between two laps of the dataset.
func TestStreamGoesRound(t *testing.T) {
	r := &servingRig{start: 5}
	var err error
	if r.base, err = bitcoinStream(rand.New(rand.NewSource(1)), streamNodes, 8*batchSize, 1.5, bitcoinDataset); err != nil {
		t.Fatal(err)
	}
	r.span = r.base[len(r.base)-1].T - r.base[0].T + 1
	last := int64(-1 << 62)
	for i := 0; i < 20; i++ {
		for _, e := range r.batch(i) {
			if e.T < last {
				t.Fatalf("batch %d: time runs back from %d to %d", i, last, e.T)
			}
			last = e.T
		}
	}
	if got, want := r.batch(8)[0], r.base[5*batchSize]; got.From != want.From || got.T != want.T+r.span {
		t.Errorf("batch 8 starts with %+v, want %+v one span later", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "ingest", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "ingest", Start: 50, End: 90},
		{ID: 4, Parent: 3, Name: "inner", Start: 60, End: 70},
	}
	got := map[string]selfRow{}
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	if r := got["run"]; r.Self != 30 || r.Total != 100 {
		t.Errorf("run: %+v, want self 30 total 100", r)
	}
	if r := got["ingest"]; r.Self != 60 || r.Total != 70 || r.Count != 2 {
		t.Errorf("ingest: %+v, want self 60 total 70 count 2", r)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestReportRendersSavedTrace(t *testing.T) {
	t.Parallel()
	o := smokeOptions(t, "stream_shared", true)
	res := mustRun(t, o)
	path, err := writeTrace(o.outDir, traceFile{Workload: o.workload, Seed: o.seed, Metrics: res.metrics.list, Spans: res.spans})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := report(&out, path); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stream.Engine.IngestWithAck", "budget.residual_frac", "residual"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}
