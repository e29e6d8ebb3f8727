package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"flowmotif/internal/core"
	"flowmotif/internal/gen"
	"flowmotif/internal/motif"
	"flowmotif/internal/store"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// detKey serializes a detection's semantic content for set comparison
// (bound nodes plus the (t, f) events of every edge-set).
func detKey(d *stream.Detection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "N%v", d.Nodes)
	for i, es := range d.Edges {
		fmt.Fprintf(&b, "|e%d", i)
		for _, p := range es {
			fmt.Fprintf(&b, ";%d:%g", p.T, p.F)
		}
	}
	return b.String()
}

// batchKey serializes a batch instance in detKey's format.
func batchKey(g *temporal.Graph, in *core.Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "N%v", in.Nodes)
	for i, a := range in.Arcs {
		fmt.Fprintf(&b, "|e%d", i)
		for _, p := range g.Series(a)[in.Spans[i].Start:in.Spans[i].End] {
			fmt.Fprintf(&b, ";%d:%g", p.T, p.F)
		}
	}
	return b.String()
}

// clusterEvents returns a synthetic time-ordered event log.
func clusterEvents(t testing.TB, seed int64) []temporal.Event {
	t.Helper()
	evs, err := gen.Bitcoin(gen.BitcoinConfig{
		Nodes: 200, SeedTxns: 700, Duration: 30000, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed * 31))
	rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	return evs
}

// catalogSubs builds the full-catalog subscription set under two (δ, φ)
// settings — the oracle workload.
func catalogSubs() []stream.Subscription {
	settings := []struct {
		delta int64
		phi   float64
	}{
		{300, 0},
		{900, 6},
	}
	var subs []stream.Subscription
	for _, mo := range motif.Catalog() {
		for _, s := range settings {
			subs = append(subs, stream.Subscription{
				ID:    fmt.Sprintf("%s/d%d/phi%g", mo.Name(), s.delta, s.phi),
				Motif: mo,
				Delta: s.delta,
				Phi:   s.phi,
			})
		}
	}
	return subs
}

func newTestCluster(t testing.TB, n int, subs []stream.Subscription) (*Coordinator, []*LocalMember) {
	t.Helper()
	members := make([]Member, n)
	locals := make([]*LocalMember, n)
	for i := range members {
		lm, err := NewLocalMember(fmt.Sprintf("m%d", i), LocalOptions{Recent: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = lm
		locals[i] = lm
	}
	c, err := New(Config{Members: members, Subs: subs, RetryDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, locals
}

// feedRandomBatches streams evs[lo:hi) into the cluster in random batch
// sizes with intra-batch shuffling (the stream contract only fixes time
// order).
func feedRandomBatches(t testing.TB, c *Coordinator, evs []temporal.Event, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < len(evs); {
		n := 1 + rng.Intn(50)
		if i+n > len(evs) {
			n = len(evs) - i
		}
		batch := append([]temporal.Event(nil), evs[i:i+n]...)
		rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
		if _, err := c.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		i += n
	}
}

// checkOracle compares the cluster's served instance set (scatter-gather
// /instances) and per-subscription top-k against the batch algorithm on
// the full event log.
func checkOracle(t *testing.T, c *Coordinator, g *temporal.Graph, subs []stream.Subscription) int {
	t.Helper()
	total := 0
	for _, sub := range subs {
		p := core.Params{Delta: sub.Delta, Phi: sub.Phi}
		want, err := core.Collect(g, sub.Motif, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantKeys := map[string]bool{}
		for _, in := range want {
			wantKeys[batchKey(g, in)] = true
		}
		ds, _, err := c.Instances(sub.ID, 0)
		if err != nil {
			t.Fatalf("instances %s: %v", sub.ID, err)
		}
		gotKeys := map[string]bool{}
		for _, d := range ds {
			k := detKey(d)
			if gotKeys[k] {
				t.Errorf("sub %s: duplicate served instance %s", sub.ID, k)
			}
			gotKeys[k] = true
		}
		for k := range wantKeys {
			if !gotKeys[k] {
				t.Errorf("sub %s: missing %s", sub.ID, k)
			}
		}
		for k := range gotKeys {
			if !wantKeys[k] {
				t.Errorf("sub %s: spurious %s", sub.ID, k)
			}
		}
		total += len(wantKeys)

		// Per-subscription top-k must be the k best by flow.
		wantFlows := make([]float64, 0, len(want))
		for _, in := range want {
			wantFlows = append(wantFlows, in.Flow)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(wantFlows)))
		const k = 10
		top, _, err := c.TopK(sub.ID, k)
		if err != nil {
			t.Fatalf("topk %s: %v", sub.ID, err)
		}
		wantK := len(wantFlows)
		if wantK > k {
			wantK = k
		}
		if len(top) != wantK {
			t.Errorf("sub %s: topk served %d, want %d", sub.ID, len(top), wantK)
		}
		for i := 0; i < len(top) && i < wantK; i++ {
			// Streaming sums edge flows over band-restricted series, batch
			// over the full graph: identical instances, different FP
			// summation order. Compare with a relative epsilon.
			if !floatsClose(top[i].Flow, wantFlows[i]) {
				t.Errorf("sub %s: topk[%d].Flow = %g, want %g", sub.ID, i, top[i].Flow, wantFlows[i])
			}
		}
	}
	return total
}

// TestClusterSingleEngineEquivalence is the acceptance oracle: an N-shard
// cluster over the full motif catalog serves exactly the instance set of a
// single engine (the batch algorithm) with the same subscriptions, for
// N ∈ {1, 2, 4}.
func TestClusterSingleEngineEquivalence(t *testing.T) {
	evs := clusterEvents(t, 7)
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	subs := catalogSubs()
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c, _ := newTestCluster(t, n, subs)
			if n > 1 {
				// Sanity: rendezvous should actually spread the load.
				byMember := map[string]int{}
				for _, owner := range c.Placement() {
					byMember[owner]++
				}
				if len(byMember) < 2 {
					t.Fatalf("placement degenerate: %v", byMember)
				}
			}
			feedRandomBatches(t, c, evs, 99)
			if _, err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if total := checkOracle(t, c, g, subs); total == 0 {
				t.Fatal("degenerate test: batch search found no instances")
			}
		})
	}
}

// TestClusterMembershipAndFailover is the lifecycle oracle: mid-stream the
// cluster gains a member (live re-placement), drains one gracefully, and
// loses one to a kill — and still serves exactly the single-engine
// instance set, with no instance lost or duplicated.
func TestClusterMembershipAndFailover(t *testing.T) {
	evs := clusterEvents(t, 11)
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	subs := catalogSubs()
	c, locals := newTestCluster(t, 3, subs)

	quarter := len(evs) / 4
	feedRandomBatches(t, c, evs[:quarter], 1)

	// Scale out: m3 joins mid-stream and wins some subscriptions live.
	m3, err := NewLocalMember("m3", LocalOptions{Recent: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	movesBefore := c.Stats().Moves
	if err := c.AddMember(m3); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Moves == movesBefore {
		t.Fatal("adding a member moved no subscription; rebalance inert")
	}
	feedRandomBatches(t, c, evs[quarter:2*quarter], 2)

	// Graceful drain: m1 leaves, handing its subscriptions off live.
	if err := c.RemoveMember("m1"); err != nil {
		t.Fatal(err)
	}
	feedRandomBatches(t, c, evs[2*quarter:3*quarter], 3)

	// Kill: m0 stops answering; the next broadcast marks it down and
	// re-places its subscriptions, regenerated from coordinator history.
	killed := locals[0]
	owned := 0
	for _, owner := range c.Placement() {
		if owner == "m0" {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("test premise broken: m0 owns no subscriptions before the kill")
	}
	killed.SetDown(true)
	feedRandomBatches(t, c, evs[3*quarter:], 4)
	// Pipelined ingest acks on append; the drain barrier guarantees the
	// failover has been reaped before the assertions below.
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Downs != 1 {
		t.Fatalf("Downs = %d after kill, want 1", st.Downs)
	}
	for sub, owner := range c.Placement() {
		if owner == "m0" {
			t.Fatalf("subscription %s still placed on the killed member", sub)
		}
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if total := checkOracle(t, c, g, subs); total == 0 {
		t.Fatal("degenerate test: batch search found no instances")
	}
}

// checkServedSubset asserts every detection the cluster serves for each
// subscription is in the batch algorithm's set on the full event log (a
// bounded history may lose detections older than the bound, never invent
// one) and returns how many were served.
func checkServedSubset(t *testing.T, c *Coordinator, g *temporal.Graph, subs []stream.Subscription) int {
	t.Helper()
	served := 0
	for _, sub := range subs {
		want, err := core.Collect(g, sub.Motif, core.Params{Delta: sub.Delta, Phi: sub.Phi}, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantKeys := map[string]bool{}
		for _, in := range want {
			wantKeys[batchKey(g, in)] = true
		}
		ds, _, err := c.Instances(sub.ID, 0)
		if err != nil {
			t.Fatalf("instances %s: %v", sub.ID, err)
		}
		for _, d := range ds {
			if k := detKey(d); !wantKeys[k] {
				t.Errorf("sub %s: spurious %s", sub.ID, k)
			}
		}
		served += len(ds)
	}
	return served
}

// TestHistoryBoundTimestampCut: batches share the boundary timestamp
// t=100 and the history bound lands between its two events. The bound
// must keep both, so the subscription regenerated on the survivor (whose
// own log, serving nothing, retains no events) re-enumerates anchor 100
// over the whole run and serves only single-engine detections.
func TestHistoryBoundTimestampCut(t *testing.T) {
	batches := [][]temporal.Event{
		{{From: 3, To: 4, T: 50, F: 1}, {From: 3, To: 4, T: 60, F: 1}},
		{{From: 3, To: 4, T: 90, F: 1}, {From: 0, To: 1, T: 100, F: 1}},
		{{From: 0, To: 1, T: 100, F: 2}, {From: 1, To: 2, T: 105, F: 1}},
		{{From: 5, To: 6, T: 200, F: 1}},
	}
	var evs []temporal.Event
	for _, b := range batches {
		evs = append(evs, b...)
	}
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	subs := []stream.Subscription{{ID: "p", Motif: motif.MustPath(0, 1, 2), Delta: 10}}
	members := make([]Member, 2)
	for i := range members {
		if members[i], err = NewLocalMember(fmt.Sprintf("m%d", i), LocalOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// 7 events, bound 3: the nominal cut is the second t=100 event.
	c, err := New(Config{Members: members, Subs: subs, RetryDelay: time.Millisecond, HistoryLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, b := range batches {
		if _, err := c.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.HistoryEvents != 4 || st.HistoryTrim != 3 {
		t.Fatalf("history %d events, %d trimmed; want 4 (from t=100 on) and 3", st.HistoryEvents, st.HistoryTrim)
	}
	owner := c.Placement()["p"]
	for _, m := range members {
		if m.ID() == owner {
			m.(*LocalMember).SetDown(true)
		}
	}
	if err := c.FailMember(owner); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Placement()["p"] == owner {
		t.Fatal("subscription not re-placed")
	}
	if served := checkServedSubset(t, c, g, subs); served == 0 {
		t.Fatal("degenerate test: the survivor regenerated nothing")
	}
}

// TestBoundedHistoryFailover: with HistoryLimit set, the history holds
// the newest limit events plus the earlier events sharing its first
// timestamp, historyTrimmed counts exactly the events cut, and a member
// killed mid-stream is failed over onto survivors that serve only
// single-engine detections (those older than the bound may be lost).
func TestBoundedHistoryFailover(t *testing.T) {
	evs := clusterEvents(t, 13)
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	subs := catalogSubs()
	limit := len(evs) / 4
	members := make([]Member, 3)
	locals := make([]*LocalMember, 3)
	for i := range members {
		if locals[i], err = NewLocalMember(fmt.Sprintf("m%d", i), LocalOptions{Recent: 1 << 16}); err != nil {
			t.Fatal(err)
		}
		members[i] = locals[i]
	}
	c, err := New(Config{Members: members, Subs: subs, RetryDelay: time.Millisecond, HistoryLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	half := len(evs) / 2
	feedRandomBatches(t, c, evs[:half], 5)
	locals[0].SetDown(true)
	feedRandomBatches(t, c, evs[half:], 6)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Downs != 1 {
		t.Fatalf("Downs = %d after kill, want 1", st.Downs)
	}
	trimmed := int(st.HistoryTrim)
	if trimmed == 0 || trimmed+st.HistoryEvents != len(evs) {
		t.Fatalf("history %d events + %d trimmed, want %d in all with some trimmed",
			st.HistoryEvents, trimmed, len(evs))
	}
	// The cut sits on a timestamp boundary: the events kept beyond the
	// bound all share the first kept timestamp, and none before it does.
	t0 := evs[len(evs)-limit].T
	if evs[trimmed].T != t0 || evs[trimmed-1].T >= t0 {
		t.Fatalf("history starts at t=%d after t=%d; want the first event at t=%d",
			evs[trimmed].T, evs[trimmed-1].T, t0)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if served := checkServedSubset(t, c, g, subs); served == 0 {
		t.Fatal("degenerate test: nothing served")
	}
}

// TestClusterGlobalTopK checks the cluster-wide (all-subscription) top-k
// merge against a single TopKSink fed every detection.
func TestClusterGlobalTopK(t *testing.T) {
	evs := clusterEvents(t, 17)
	subs := catalogSubs()
	c, _ := newTestCluster(t, 3, subs)
	feedRandomBatches(t, c, evs, 5)
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	const k = 25
	got, _, err := c.TopK("", k)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: global best k over the union of per-sub exact lists.
	var all []*stream.Detection
	for _, sub := range subs {
		ds, _, err := c.TopK(sub.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ds...)
	}
	want := MergeTopK([][]*stream.Detection{all}, k)
	if len(got) != len(want) {
		t.Fatalf("global topk served %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Flow != want[i].Flow || got[i].Sub != want[i].Sub || got[i].Start != want[i].Start {
			t.Errorf("global topk[%d] = (%s, %g, %d), want (%s, %g, %d)",
				i, got[i].Sub, got[i].Flow, got[i].Start, want[i].Sub, want[i].Flow, want[i].Start)
		}
	}
	if len(got) >= 2 {
		for i := 1; i < len(got); i++ {
			if got[i-1].Flow < got[i].Flow {
				t.Fatalf("global topk not sorted at %d: %g < %g", i, got[i-1].Flow, got[i].Flow)
			}
		}
	}
}

// TestClusterInstancesIndependentOfPlacement: /instances over every
// subscription answers one newest-first sequence whatever the member
// count. Finalize rounds here emit more than the limit at one watermark,
// so a shard that cut its ring to the limit in emission order before
// sorting would answer with a prefix that depends on which subscriptions
// it holds. Coalescing is capped at the batch size, so every member sees
// the same rounds.
func TestClusterInstancesIndependentOfPlacement(t *testing.T) {
	const batch, limit = 300, 20
	evs := clusterEvents(t, 5)
	subs := catalogSubs()
	var answers [][]*stream.Detection
	for _, n := range []int{1, 3} {
		members := make([]Member, n)
		for i := range members {
			lm, err := NewLocalMember(fmt.Sprintf("m%d", i), LocalOptions{Recent: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			members[i] = lm
		}
		c, err := New(Config{Members: members, Subs: subs, RetryDelay: time.Millisecond, CoalesceEvents: batch})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		for lo := 0; lo < len(evs); lo += batch {
			if _, err := c.Ingest(evs[lo:min(lo+batch, len(evs))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		ds, _, err := c.Instances("", limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != limit {
			t.Fatalf("%d members: %d detections, want %d", n, len(ds), limit)
		}
		answers = append(answers, ds)
	}
	for i := range limit {
		a, b := answers[0][i], answers[1][i]
		if a.Sub != b.Sub || a.DetectedAt != b.DetectedAt || detKey(a) != detKey(b) {
			t.Errorf("instances[%d]: 1 member (%s, %d, %s), 3 members (%s, %d, %s)",
				i, a.Sub, a.DetectedAt, detKey(a), b.Sub, b.DetectedAt, detKey(b))
		}
	}
}

// TestClusterOrderContract: the coordinator enforces the engines' batch
// admission rules before broadcasting, so a bad batch is all-or-nothing
// cluster-wide.
func TestClusterOrderContract(t *testing.T) {
	mo := motif.MustPath(0, 1, 2)
	c, _ := newTestCluster(t, 2, []stream.Subscription{
		{ID: "s", Motif: mo, Delta: 10, Phi: 0},
	})
	if _, err := c.Ingest([]temporal.Event{{From: 0, To: 1, T: 100, F: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest([]temporal.Event{{From: 0, To: 1, T: 50, F: 1}}); !errors.Is(err, temporal.ErrBehindFrontier) {
		t.Fatalf("stale batch: err=%v, want ErrBehindFrontier", err)
	}
	if _, err := c.Ingest([]temporal.Event{{From: 0, To: 1, T: 200, F: -1}}); err == nil {
		t.Fatal("non-positive flow accepted")
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Post-flush, events must clear watermark+δ cluster-wide.
	if _, err := c.Ingest([]temporal.Event{{From: 0, To: 1, T: 105, F: 1}}); !errors.Is(err, temporal.ErrBehindFrontier) {
		t.Fatalf("post-flush ingest inside watermark+δ: err=%v", err)
	}
	if _, err := c.Ingest([]temporal.Event{{From: 0, To: 1, T: 111, F: 1}}); err != nil {
		t.Fatalf("post-flush ingest beyond watermark+δ rejected: %v", err)
	}
	st := c.Stats()
	if st.Events != 2 {
		t.Fatalf("Events = %d, want 2", st.Events)
	}
	// Unknown subscriptions 404 on both query paths.
	if _, _, err := c.Instances("nope", 0); !errors.Is(err, ErrUnknownSub) {
		t.Errorf("unknown sub instances: %v", err)
	}
	if _, _, err := c.TopK("nope", 5); !errors.Is(err, ErrUnknownSub) {
		t.Errorf("unknown sub topk: %v", err)
	}
}

// TestClusterLastMemberRules: the last member cannot be drained while
// subscriptions exist, and losing every member leaves subscriptions
// unplaced until a new member arrives and adopts them from the
// replication log/history — including a batch that was acked into the
// log but never applied by any member (the log, not the members, is the
// stream of record).
func TestClusterLastMemberRules(t *testing.T) {
	mo := motif.MustPath(0, 1)
	c, locals := newTestCluster(t, 1, []stream.Subscription{
		{ID: "s", Motif: mo, Delta: 5, Phi: 0},
	})
	if err := c.RemoveMember("m0"); err == nil {
		t.Fatal("draining the last member accepted")
	}
	if _, err := c.Ingest([]temporal.Event{
		{From: 0, To: 1, T: 10, F: 3},
		{From: 0, To: 1, T: 20, F: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	locals[0].SetDown(true)
	// Pipelined ingest still acks: the batch lands in the replication log
	// before the member's death is discovered.
	ack, err := c.Ingest([]temporal.Event{{From: 0, To: 1, T: 30, F: 1}})
	if err != nil {
		t.Fatalf("pipelined ingest with the member down: %v", err)
	}
	if ack.Seq == 0 {
		t.Fatalf("pipelined ack missing log seq: %+v", ack)
	}
	// The drain barrier discovers the death; the last member's
	// subscriptions end up unplaced.
	if err := c.Drain(); !errors.Is(err, ErrNoMembers) {
		t.Fatalf("drain with every member down: err=%v, want ErrNoMembers", err)
	}
	if _, err := c.Ingest([]temporal.Event{{From: 0, To: 1, T: 40, F: 1}}); !errors.Is(err, ErrNoMembers) {
		t.Fatalf("ingest with no members left: err=%v, want ErrNoMembers", err)
	}
	st := c.Stats()
	if len(st.Unplaced) != 1 || !st.Degraded {
		t.Fatalf("Unplaced = %v (degraded=%v), want [s] degraded", st.Unplaced, st.Degraded)
	}
	if _, _, err := c.Instances("s", 0); err == nil {
		t.Fatal("query for an unplaced subscription succeeded")
	}
	// A new member adopts the orphan from coordinator history — including
	// the t=30 batch that was acked but never applied by the dead member.
	fresh, err := NewLocalMember("m9", LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddMember(fresh); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); len(st.Unplaced) != 0 {
		t.Fatalf("Unplaced = %v after adoption, want none", st.Unplaced)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	ds, _, err := c.Instances("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 {
		t.Fatalf("served %d instances after adoption, want 3 (regenerated from the log incl. the acked-but-unapplied batch)", len(ds))
	}
}

// TestMergeTopKEdgeCases covers the distributed merge's boring-but-sharp
// corners: ties at the threshold, k larger than the total, empty shards.
func TestMergeTopKEdgeCases(t *testing.T) {
	d := func(sub string, flow float64, start int64) *stream.Detection {
		return &stream.Detection{Sub: sub, Flow: flow, Start: start, End: start + 1}
	}
	// Ties at the threshold: flow 5 appears on two shards; the earlier
	// Start (then sub id) wins deterministically.
	lists := [][]*stream.Detection{
		{d("a", 9, 10), d("a", 5, 30)},
		{d("b", 5, 20), d("b", 3, 5)},
		nil,
	}
	got := MergeTopK(lists, 2)
	if len(got) != 2 || got[0].Flow != 9 || got[1].Flow != 5 || got[1].Start != 20 {
		t.Fatalf("threshold tie: got %v", flowsOf(got))
	}
	// Same flow, same span, different subs: sub id breaks the tie.
	tied := MergeTopK([][]*stream.Detection{
		{d("z", 5, 20)},
		{d("b", 5, 20)},
	}, 1)
	if len(tied) != 1 || tied[0].Sub != "b" {
		t.Fatalf("sub tie-break: got %v", tied[0])
	}
	// k larger than the total keeps everything, sorted.
	all := MergeTopK(lists, 100)
	if len(all) != 4 || all[3].Flow != 3 {
		t.Fatalf("k>total: got %v", flowsOf(all))
	}
	// k <= 0 keeps everything too.
	if got := MergeTopK(lists, 0); len(got) != 4 {
		t.Fatalf("k=0: got %d", len(got))
	}
	if got := MergeTopK(nil, 5); len(got) != 0 {
		t.Fatalf("no shards: got %d", len(got))
	}
}

func floatsClose(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := 1.0
	if a > scale {
		scale = a
	}
	if b > scale {
		scale = b
	}
	return diff <= 1e-9*scale
}

func flowsOf(ds []*stream.Detection) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Flow
	}
	return out
}

// TestAlignWatermark covers scatter-gather alignment across shards with
// disjoint watermarks: detections past the slowest started shard are held
// back, and never-started shards don't drag the watermark to zero.
func TestAlignWatermark(t *testing.T) {
	d := func(at int64) *stream.Detection { return &stream.Detection{DetectedAt: at} }
	results := []QueryResult{
		{Watermark: 100, Started: true, Detections: []*stream.Detection{d(40), d(95)}},
		{Watermark: 60, Started: true, Detections: []*stream.Detection{d(55), d(60)}},
		{Started: false}, // fresh shard, no events yet
	}
	alignedW, started, lists := alignWatermark(results)
	if alignedW != 60 || !started {
		t.Fatalf("alignedW = (%d, %v), want (60, started)", alignedW, started)
	}
	if len(lists[0]) != 1 || lists[0][0].DetectedAt != 40 {
		t.Fatalf("fast shard not filtered: %v", lists[0])
	}
	if len(lists[1]) != 2 {
		t.Fatalf("slow shard filtered: %v", lists[1])
	}
	// All shards unstarted: nothing served, watermark zero — and the
	// started flag false, so "no data yet" is distinguishable from an
	// empty-but-started stream whose watermark happens to be 0.
	alignedW, started, lists = alignWatermark([]QueryResult{{Started: false}, {Started: false}})
	if alignedW != 0 || started || len(lists[0]) != 0 {
		t.Fatalf("unstarted cluster: w=%d started=%v lists=%v", alignedW, started, lists)
	}
	// A started shard at watermark 0 (first event at t=0) is NOT the
	// no-data case: started must be true.
	if _, started, _ := alignWatermark([]QueryResult{{Started: true, Watermark: 0}}); !started {
		t.Fatal("started shard at watermark 0 reported as no-data")
	}
	// Disjoint watermarks where one shard is strictly ahead by a whole
	// band: everything the laggard has is kept, the leader contributes
	// only its aligned prefix.
	results = []QueryResult{
		{Watermark: 1000, Started: true, Detections: []*stream.Detection{d(999), d(1000)}},
		{Watermark: 10, Started: true, Detections: []*stream.Detection{d(9)}},
	}
	alignedW, started, lists = alignWatermark(results)
	if alignedW != 10 || !started || len(lists[0]) != 0 || len(lists[1]) != 1 {
		t.Fatalf("disjoint watermarks: w=%d lists=%v", alignedW, lists)
	}
}

// TestRendezvousPlacement checks the minimal-disruption property that the
// membership lifecycle relies on: adding a member only moves subscriptions
// onto it; removing one only moves subscriptions off it.
func TestRendezvousPlacement(t *testing.T) {
	subs := make([]string, 200)
	for i := range subs {
		subs[i] = fmt.Sprintf("sub-%d", i)
	}
	three := []string{"a", "b", "c"}
	four := []string{"a", "b", "c", "d"}
	p3 := Placement(subs, three)
	p4 := Placement(subs, four)
	movedTo := map[string]int{}
	for _, s := range subs {
		if p3[s] != p4[s] {
			movedTo[p4[s]]++
			if p4[s] != "d" {
				t.Fatalf("sub %s moved %s -> %s on member ADD (only moves onto the new member are allowed)", s, p3[s], p4[s])
			}
		}
	}
	if movedTo["d"] == 0 {
		t.Fatal("new member won no subscriptions")
	}
	// Roughly balanced: each member should own a nontrivial share.
	byOwner := map[string]int{}
	for _, o := range p4 {
		byOwner[o]++
	}
	for _, m := range four {
		if byOwner[m] < len(subs)/len(four)/3 {
			t.Errorf("member %s owns only %d of %d subscriptions; placement skewed: %v", m, byOwner[m], len(subs), byOwner)
		}
	}
	// Empty member set: no owner.
	if got := rendezvousOwner("x", nil); got != "" {
		t.Fatalf("owner over empty member set = %q", got)
	}
}

// TestLocalMemberDurableRestart: a durable shard replays its WAL on open,
// so a restarted member resumes with a consistent frontier — the store
// never rejects a broadcast the (fresh) engine would accept.
func TestLocalMemberDurableRestart(t *testing.T) {
	dir := t.TempDir()
	mo := motif.MustPath(0, 1)
	subs := []stream.Subscription{{ID: "s", Motif: mo, Delta: 5, Phi: 0}}

	m1, err := NewLocalMember("d0", LocalOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := New(Config{Members: []Member{m1}, Subs: subs, RetryDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Ingest([]temporal.Event{
		{From: 0, To: 1, T: 10, F: 1},
		{From: 0, To: 1, T: 20, F: 2},
	}); err != nil {
		t.Fatal(err)
	}
	// Push the pipelined batch through to the shard WAL before restart.
	if err := c1.Drain(); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same data dir: the WAL warms the engine.
	m2, err := NewLocalMember("d0", LocalOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Replayed() != 2 {
		t.Fatalf("Replayed = %d, want 2", m2.Replayed())
	}
	if w, ok := m2.Engine().Watermark(); !ok || w != 20 {
		t.Fatalf("watermark after replay = (%d, %v), want (20, true)", w, ok)
	}
	c2, err := New(Config{Members: []Member{m2}, Subs: subs, RetryDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	// The resumed stream continues past the recorded frontier; both the
	// engine and the WAL accept it.
	if _, err := c2.Ingest([]temporal.Event{{From: 0, To: 1, T: 30, F: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	ds, _, err := c2.Instances("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Subscription state was not persisted: detection resumes at the
	// restart watermark (documented member-durability semantics).
	if len(ds) != 1 || ds[0].Start != 30 {
		t.Fatalf("post-restart detections = %v, want exactly the post-restart instance", ds)
	}
}

// TestLocalMemberDurableCheckpoints pins what the in-process durable shard
// gained by running the one shard core: Flush and Close checkpoint. It also
// pins both recovery paths that core has: a LocalMember always opens with
// no subscriptions, so the checkpoint (taken with one placed) does not fit
// and the whole WAL is replayed, while the same core built over an engine
// that already holds the subscription — what server.New does with
// Config.Subs — restores the checkpoint and replays only the tail.
func TestLocalMemberDurableCheckpoints(t *testing.T) {
	dir := t.TempDir()
	spec := SubSpec{ID: "s", Motif: "0-1", Delta: 5}
	snapshotSeq := func(m *LocalMember) int64 {
		seq, _, ok := m.Store().SnapshotInfo()
		if !ok {
			return -1
		}
		return seq
	}

	m1, err := NewLocalMember("d", LocalOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.AddSubscription(Handoff{Sub: spec}); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Ingest(Batch{Seq: 1, Events: []temporal.Event{
		{From: 0, To: 1, T: 10, F: 1}, {From: 0, To: 1, T: 20, F: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := snapshotSeq(m1); got != -1 {
		t.Fatalf("snapshot at seq %d before any flush", got)
	}
	if _, err := m1.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotSeq(m1); got != 2 {
		t.Fatalf("snapshot seq after Flush = %d, want 2 (the flushed frontier)", got)
	}
	if _, err := m1.Ingest(Batch{Seq: 2, Events: []temporal.Event{{From: 0, To: 1, T: 100, F: 3}}}); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotSeq(m1); got != 3 {
		t.Fatalf("snapshot seq after Close = %d, want 3", got)
	}

	// Reopened empty: full replay, then one more event as the WAL tail.
	m2, err := NewLocalMember("d", LocalOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec := m2.Recovery(); rec.FromSnapshot || rec.Replayed != 3 {
		t.Fatalf("empty reopen recovered %+v, want a full replay of 3 events", rec)
	}
	if _, err := m2.Ingest(Batch{Seq: 1, Events: []temporal.Event{{From: 0, To: 1, T: 200, F: 4}}}); err != nil {
		t.Fatal(err)
	}
	// Kill it (store only, no final checkpoint): the newest snapshot is
	// still m1's, taken with the subscription placed.
	if err := m2.Store().Close(); err != nil {
		t.Fatal(err)
	}

	sub, err := spec.Subscription()
	if err != nil {
		t.Fatal(err)
	}
	recent, topk := stream.NewMemorySink(16), stream.NewTopKSink(4)
	eng, err := stream.NewEngine(stream.Config{Subs: []stream.Subscription{sub}}, stream.MultiSink{recent, topk})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShard(eng, recent, topk, st)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if rec := sh.Recovery(); !rec.FromSnapshot || rec.SnapshotSeq != 3 || rec.Replayed != 1 {
		t.Fatalf("reopen with the subscription recovered %+v, want snapshot 3 plus a 1-event tail", rec)
	}
	// The restored sink holds what the snapshot held: the flushed
	// instance(s) of the first batch.
	res, err := sh.Instances("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detections) == 0 || res.Watermark != 200 {
		t.Fatalf("restored shard serves %d detections at watermark %d, want the checkpointed ones at 200", len(res.Detections), res.Watermark)
	}
}
