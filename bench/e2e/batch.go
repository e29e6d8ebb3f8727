package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"flowmotif/internal/core"
	"flowmotif/internal/gen"
	"flowmotif/internal/join"
	"flowmotif/internal/match"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// batch_paper is the paper's own evaluation (§6, Figures 9–12) with no
// streaming layer at all: whole-graph searches over two immutable
// graphs, one client, Params.Workers = 2.

// dataset is one whole graph and the sweep it is searched with.
type dataset struct {
	name   string
	nodes  int
	gen    func(draw int64, days int) ([]temporal.Event, error)
	seed   int64     // the dataset's fixed draw (inputs.go)
	deltas []int64   // Figure-9 δ sweep
	phis   []float64 // Figure-10 φ sweep
	delta0 int64     // δ of the φ sweep
	phi0   float64   // φ of the δ sweep
	g      *temporal.Graph
	events int
}

const (
	batchWorkers = 2
	batchDays    = 15 // days the passenger graph covers, the bitcoin graph half as many again; a fixed-work run takes 2
)

// batchDatasets are internal/harness's two graphs and sweeps at the
// issue's node counts and daily rates (1000 bitcoin transactions, 1450
// trips), over half the issue's days (22 and 15 for 45 and 31) so that a
// run gets through a pass of the suite.
func batchDatasets() []*dataset {
	return []*dataset{
		{
			// Many nodes, few events per arc: many structural matches over
			// short series, so phase P1 does most of the work.
			name: "bitcoin", nodes: 15000, seed: bitcoinDataset,
			gen: func(draw int64, days int) ([]temporal.Event, error) {
				return gen.Bitcoin(gen.BitcoinConfig{Nodes: 15000, SeedTxns: 1500 * days, Duration: int64(days) * 3 / 2 * 86400, Seed: draw})
			},
			deltas: []int64{200, 400, 600, 800, 1000},
			phis:   []float64{5, 10, 15, 20, 25},
			delta0: 600, phi0: 5,
		},
		{
			// 289 zones, small integer flows: few arcs, long series, so
			// phase P2 (and the DP module) does most.
			name: "passenger", nodes: 289, seed: passengerDataset,
			gen: func(draw int64, days int) ([]temporal.Event, error) {
				return gen.Passenger(gen.PassengerConfig{Zones: 289, Trips: 1450 * days, Days: days, Support: 7, Seed: draw})
			},
			deltas: []int64{300, 600, 900, 1200, 1500},
			phis:   []float64{2, 3, 4, 5, 6},
			delta0: 900, phi0: 2,
		},
	}
}

type searchKind int

const (
	kindCount searchKind = iota // core.Count: the workload's primary request
	kindTopK                    // core.TopK: the paper's §5 question
	kindDP                      // core.TopOneDPFast: §5.1
)

// search is one query of the suite.
type search struct {
	id    string
	kind  searchKind
	ds    *dataset
	mo    *motif.Motif
	delta int64
	phi   float64
	k     int
}

// batchSuite is the 440 searches of one pass — per dataset and catalog
// motif: a δ sweep and a φ sweep of Count, a δ sweep of TopK at k = 10
// and 100, TopOneDPFast at two δ — in an order shuffled once with a
// fixed seed, so that any prefix of a pass is a fair sample of it and a
// deadline that cuts a pass short does not change the mix.
func batchSuite(dss []*dataset) []search {
	var suite []search
	for _, ds := range dss {
		for _, mo := range motif.Catalog() {
			for _, d := range ds.deltas {
				suite = append(suite, search{kind: kindCount, ds: ds, mo: mo, delta: d, phi: ds.phi0})
			}
			for _, p := range ds.phis {
				suite = append(suite, search{kind: kindCount, ds: ds, mo: mo, delta: ds.delta0, phi: p})
			}
			for _, d := range ds.deltas {
				for _, k := range []int{10, 100} {
					suite = append(suite, search{kind: kindTopK, ds: ds, mo: mo, delta: d, k: k})
				}
			}
			for _, d := range []int64{ds.deltas[1], ds.deltas[3]} {
				suite = append(suite, search{kind: kindDP, ds: ds, mo: mo, delta: d})
			}
		}
	}
	for i := range suite {
		s := &suite[i]
		s.id = searchID(s.ds, s.kind, s.mo, s.delta, s.phi, s.k)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(suite), func(i, j int) { suite[i], suite[j] = suite[j], suite[i] })
	return suite
}

// searchID names a search in outcomes and failure messages.
func searchID(ds *dataset, kind searchKind, mo *motif.Motif, delta int64, phi float64, k int) string {
	return fmt.Sprintf("%s/%s/%s/d=%d/phi=%g/k=%d", ds.name, [...]string{"count", "topk", "dp"}[kind], mo.Name(), delta, phi, k)
}

// outcome is what one search returned.
type outcome struct {
	count int64     // kindCount
	flows []float64 // kindTopK: best first; kindDP: the one best flow
	stats core.EnumStats
}

func (s *search) run() (outcome, error) {
	switch s.kind {
	case kindCount:
		n, st, err := core.Count(s.ds.g, s.mo, core.Params{Delta: s.delta, Phi: s.phi, Workers: batchWorkers})
		return outcome{count: n, stats: st}, err
	case kindTopK:
		ins, st, err := core.TopK(s.ds.g, s.mo, s.delta, s.k, batchWorkers)
		flows := make([]float64, len(ins))
		for i, in := range ins {
			flows[i] = in.Flow
		}
		return outcome{flows: flows, stats: st}, err
	default:
		f, st, err := core.TopOneDPFast(s.ds.g, s.mo, s.delta)
		return outcome{flows: []float64{f}, stats: st}, err
	}
}

// batchRig is one set-up of batch_paper.
type batchRig struct {
	dss    []*dataset
	suite  []search
	buildS float64 // seconds in temporal.NewGraphWithNodes
	events int
}

// setupBatch generates both datasets, builds their graphs and runs
// every tenth search once as the warm-up slice (of the first o.events
// searches only, in a fixed-work run).
func setupBatch(o options) (*batchRig, error) {
	r := &batchRig{dss: batchDatasets()}
	rng := rand.New(rand.NewSource(o.seed))
	days := batchDays
	if o.events > 0 {
		days = 2
	}
	for _, ds := range r.dss {
		evs, err := ds.gen(o.draw(ds.seed), days)
		if err != nil {
			return nil, err
		}
		finish(rng, evs, ds.nodes)
		t := time.Now()
		g, err := temporal.NewGraphWithNodes(ds.nodes, evs)
		if err != nil {
			return nil, err
		}
		r.buildS += time.Since(t).Seconds()
		ds.g, ds.events = g, len(evs)
		r.events += len(evs)
	}
	r.suite = batchSuite(r.dss)
	warm := len(r.suite)
	if o.events > 0 {
		warm = min(warm, o.events)
	}
	for i := 0; i < warm; i += 10 {
		if _, err := r.suite[i].run(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// batchRun is what one timed phase measured.
type batchRun struct {
	searches  int
	events    int64
	use       usage
	count     []float64 // ms per Count search
	topk      []float64 // ms per TopK search
	dp        []float64 // ms per DP search
	outcomes  map[string]outcome
	attempted int64
	failed    int64
	errs      []error
}

func (b *batchRun) fail(err error) {
	b.failed++
	if len(b.errs) < 8 {
		b.errs = append(b.errs, err)
	}
}

// measure runs searches in suite order, pass after pass, until the
// deadline, or exactly n searches when n > 0.
func (r *batchRig) measure(tr *tracer, seconds float64, n int) *batchRun {
	run := &batchRun{outcomes: map[string]outcome{}}
	m := startMeter()
	root := tr.start("run", 0, 0)
	deadline := m.t0.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if n > 0 && i >= n || n <= 0 && !time.Now().Before(deadline) {
			break
		}
		s := &r.suite[i%len(r.suite)]
		sp := tr.start([...]string{"core.Count", "core.TopK", "core.TopOneDPFast"}[s.kind], root, int64(i+1))
		t := time.Now()
		out, err := s.run()
		d := ms(time.Since(t))
		tr.end(sp)
		run.searches++
		run.events += int64(s.ds.events)
		if err != nil {
			run.fail(fmt.Errorf("%s: %w", s.id, err))
			continue
		}
		switch s.kind {
		case kindCount:
			run.count = append(run.count, d)
		case kindTopK:
			run.topk = append(run.topk, d)
		default:
			run.dp = append(run.dp, d)
		}
		if prev, seen := run.outcomes[s.id]; seen && (prev.count != out.count || !sameFlows(prev.flows, out.flows)) {
			run.fail(fmt.Errorf("%s: a later pass returned a different answer", s.id))
		}
		run.outcomes[s.id] = out
	}
	tr.end(root)
	run.use = m.stop()
	run.attempted = int64(run.searches)
	return run
}

// verify checks the searches' answers against references that share no
// code path with them: the join baseline (internal/join) on a small
// time prefix, Definition 3.2 validity and maximality of every 100th
// enumerated instance, and the DP module's best flow against the
// enumeration's top-1.
func (r *batchRig) verify(run *batchRun) {
	// Top-1 of the enumeration is the DP module's answer, wherever a run
	// did both for the same graph, motif and δ.
	for i := range r.suite {
		s := &r.suite[i]
		dp, ok := run.outcomes[s.id]
		if s.kind != kindDP || !ok {
			continue
		}
		top, ok := run.outcomes[searchID(s.ds, kindTopK, s.mo, s.delta, 0, 10)]
		if !ok {
			continue
		}
		run.attempted++
		best := 0.0
		if len(top.flows) > 0 {
			best = top.flows[0]
		}
		if best != dp.flows[0] {
			run.fail(fmt.Errorf("%s: DP best flow %v, enumeration top-1 %v", s.id, dp.flows[0], best))
		}
	}
	for _, ds := range r.dss {
		// The join baseline materializes every sub-motif instance, so it
		// gets a prefix small enough for its intermediate results.
		lo, hi := ds.g.TimeSpan()
		prefix := ds.g.PrefixByTime(lo + (hi-lo)/joinPrefixShare)
		for _, mo := range motif.Catalog() {
			p := core.Params{Delta: ds.delta0, Phi: ds.phi0}
			run.attempted++
			want, _, err := join.Count(prefix, mo, p, join.Options{MaxPartials: 4 << 20})
			if errors.Is(err, join.ErrBudget) {
				run.attempted-- // too many partials for this shape: nothing compared
				continue
			}
			got, _, gerr := core.Count(prefix, mo, p)
			if err != nil || gerr != nil || got != want {
				run.fail(fmt.Errorf("%s %s prefix: core.Count %d (%v), join baseline %d (%v)", ds.name, mo.Name(), got, gerr, want, err))
			}
			// Every 100th instance of the full-graph search is valid and maximal.
			run.attempted++
			var seen int64
			var bad error
			if _, err := core.Enumerate(ds.g, mo, p, func(in *core.Instance) bool {
				seen++
				if seen%100 != 1 {
					return true
				}
				if err := core.Validate(ds.g, mo, p.Delta, p.Phi, in); err != nil {
					bad = err
				} else if ok, why := core.IsMaximal(ds.g, mo, p.Delta, in); !ok {
					bad = fmt.Errorf("not maximal: %s", why)
				}
				return bad == nil
			}); err != nil {
				bad = err
			}
			if c, ok := run.outcomes[searchID(ds, kindCount, mo, p.Delta, p.Phi, 0)]; ok && bad == nil && c.count != seen {
				bad = fmt.Errorf("Count returned %d, Enumerate visited %d", c.count, seen)
			}
			if bad != nil {
				run.fail(fmt.Errorf("%s %s: %w", ds.name, mo.Name(), bad))
			}
		}
	}
}

// joinPrefixShare is the share of each graph's time span (1/n) given to
// the join baseline.
const joinPrefixShare = 20

func runBatch(o options) (*result, error) {
	res := &result{}
	one := func(tr *tracer, seconds float64, setups int) (*batchRig, *batchRun, float64, error) {
		var rig *batchRig
		var times []float64
		for i := 0; i < setups; i++ {
			t := time.Now()
			var err error
			if rig, err = setupBatch(o); err != nil {
				return nil, nil, 0, err
			}
			times = append(times, time.Since(t).Seconds())
		}
		run := rig.measure(tr, seconds, o.events)
		if len(run.count) == 0 || len(run.topk) == 0 {
			return nil, nil, 0, errors.Join(append(run.errs, errNoOutput)...)
		}
		t := time.Now()
		rig.verify(run)
		fmt.Fprintf(os.Stderr, "batch_paper: set-up %.2fs x%d, timed %.2fs, %d searches, reference %.2fs\n",
			median(times), setups, run.use.wall, run.searches, time.Since(t).Seconds())
		res.attempted += run.attempted
		res.failed += run.failed
		res.errs = append(res.errs, run.errs...)
		return rig, run, median(times), nil
	}
	if !o.trace {
		setups := 3
		if o.events > 0 {
			setups = 1
		}
		_, run, setup, err := one(nil, o.seconds, setups)
		if err != nil {
			return nil, err
		}
		endToEnd(&res.metrics, setup, run.events, run.use, run.count, run.topk)
		return res, nil
	}
	_, plain, setup, err := one(nil, o.seconds/2, 1)
	if err != nil {
		return nil, err
	}
	endToEnd(&res.metrics, setup, plain.events, plain.use, plain.count, plain.topk)

	tr := newTracer()
	rig, traced, _, err := one(tr, o.seconds/2, 1)
	if err != nil {
		return nil, err
	}
	lm := res.startLayers(plain.events, plain.use, traced.events, traced.use, traced.count)
	lm.set("core.topk_ms_p50", median(traced.topk), "ms")
	lm.set("core.dp_ms_p50", median(traced.dp), "ms")
	lm.set("temporal.graph_build_ns_per_event", div(rig.buildS*1e9, float64(rig.events)), "ns/event")
	var ps phaseSplit
	for _, ds := range rig.dss {
		for _, mo := range motif.Catalog() {
			if err := ps.add(tr, ds.g, mo, core.Params{Delta: ds.delta0, Phi: ds.phi0}); err != nil {
				return nil, err
			}
		}
	}
	ps.report(lm)
	res.spans = tr.spans
	return res, nil
}

// phaseSplit times the paper's two phases apart through core's
// instrumented entry points: CollectMatches (P1) and EnumerateMatches
// (P2) over the collected matches.
type phaseSplit struct {
	p1S, p2S float64
	matches  int64
	stats    core.EnumStats
}

func (ps *phaseSplit) add(tr *tracer, g *temporal.Graph, mo *motif.Motif, p core.Params) error {
	return ps.addRange(tr, g, mo, p, func(ms []match.Match) (core.EnumStats, error) {
		return core.EnumerateMatches(g, mo, ms, p, nil)
	})
}

func (ps *phaseSplit) addRange(tr *tracer, g *temporal.Graph, mo *motif.Motif, p core.Params, p2 func([]match.Match) (core.EnumStats, error)) error {
	var ms []match.Match
	d, err := tr.timed("core.CollectMatches", 0, 0, func() (err error) {
		ms, err = core.CollectMatches(g, mo, p.Delta)
		return err
	})
	ps.p1S += d
	if err != nil {
		return err
	}
	ps.matches += int64(len(ms))
	var st core.EnumStats
	d, err = tr.timed("core.EnumerateMatches", 0, 0, func() (err error) {
		st, err = p2(ms)
		return err
	})
	ps.p2S += d
	if err != nil {
		return err
	}
	ps.stats.Instances += st.Instances
	ps.stats.WindowsProcessed += st.WindowsProcessed
	ps.stats.PhiPruned += st.PhiPruned
	ps.stats.AvailPruned += st.AvailPruned
	return nil
}

func (ps *phaseSplit) report(m *metricSet) {
	m.set("core.p1_ns_per_match", div(ps.p1S*1e9, float64(ps.matches)), "ns/match")
	m.set("core.p1_matches", float64(ps.matches), "count")
	m.set("core.p2_ns_per_instance", div(ps.p2S*1e9, float64(ps.stats.Instances)), "ns/instance")
	m.set("core.p2_instances", float64(ps.stats.Instances), "count")
	m.set("core.windows_processed", float64(ps.stats.WindowsProcessed), "count")
	m.set("core.phi_pruned", float64(ps.stats.PhiPruned), "count")
	m.set("core.avail_pruned", float64(ps.stats.AvailPruned), "count")
}
