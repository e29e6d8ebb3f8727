package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowmotif/internal/core"
	"flowmotif/internal/motif"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// ackDropMember wraps a member and, when armed, applies an ingest but
// reports a transport failure — the "member applied the batch, the ack
// was lost" hazard the seq tag exists for.
type ackDropMember struct {
	*LocalMember
	dropNext atomic.Bool
	drops    atomic.Int64
}

func (m *ackDropMember) Ingest(b Batch) (IngestAck, error) {
	ack, err := m.LocalMember.Ingest(b)
	if err == nil && m.dropNext.CompareAndSwap(true, false) {
		m.drops.Add(1)
		return IngestAck{}, fmt.Errorf("%w: %s: ack lost in transit", ErrMemberDown, m.ID())
	}
	return ack, err
}

// TestIdempotentResendAfterDroppedAck is the regression test for the
// non-idempotent resend hazard the old broadcast documented ("Single
// attempt: ingest is not idempotent"): a member that applied a batch but
// lost the ack used to be marked down as potentially diverged. With
// seq-tagged batches the replicator's resend is answered as a duplicate
// no-op: nobody is failed over, nothing is applied twice.
func TestIdempotentResendAfterDroppedAck(t *testing.T) {
	mo := motif.MustPath(0, 1, 2)
	subs := []stream.Subscription{
		{ID: "chain", Motif: mo, Delta: 50, Phi: 0},
		{ID: "edge", Motif: motif.MustPath(0, 1), Delta: 50, Phi: 0},
	}
	inner, err := NewLocalMember("flaky", LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &ackDropMember{LocalMember: inner}
	steady, err := NewLocalMember("steady", LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Members:    []Member{flaky, steady},
		Subs:       subs,
		RetryDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	if _, err := c.Ingest([]temporal.Event{
		{From: 0, To: 1, T: 10, F: 2},
		{From: 1, To: 2, T: 12, F: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	// Arm the drop: the next apply succeeds on the member but the ack is
	// lost, so the replicator retries the identical tagged batch.
	flaky.dropNext.Store(true)
	if _, err := c.Ingest([]temporal.Event{
		{From: 0, To: 1, T: 20, F: 1},
		{From: 1, To: 2, T: 22, F: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	if got := flaky.drops.Load(); got != 1 {
		t.Fatalf("test premise broken: %d acks dropped, want 1", got)
	}
	st := c.Stats()
	if st.Downs != 0 {
		t.Fatalf("Downs = %d after a dropped ack, want 0 (resend must be a no-op, not a failover)", st.Downs)
	}
	for _, m := range st.Members {
		if m.Failing {
			t.Fatalf("member %s flagged failing after a dropped ack", m.ID)
		}
		if m.Events != 4 {
			t.Fatalf("member %s applied %d events, want 4 (no double-apply, no loss)", m.ID, m.Events)
		}
	}
	// Served instances are exactly the batch-algorithm set: nothing lost,
	// nothing duplicated by the resend.
	g, err := temporal.NewGraph([]temporal.Event{
		{From: 0, To: 1, T: 10, F: 2},
		{From: 1, To: 2, T: 12, F: 3},
		{From: 0, To: 1, T: 20, F: 1},
		{From: 1, To: 2, T: 22, F: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if total := checkOracle(t, c, g, subs); total == 0 {
		t.Fatal("degenerate test: no instances")
	}
}

// TestMemberSeqDedup pins the member-side contract directly: a resend of
// an applied tagged batch returns the recorded ack with Dup set and does
// not touch the engine; untagged batches keep legacy all-or-nothing
// semantics.
func TestMemberSeqDedup(t *testing.T) {
	m, err := NewLocalMember("m", LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddSubscription(Handoff{Sub: SubSpec{ID: "s", Motif: "0-1", Delta: 5}}); err != nil {
		t.Fatal(err)
	}
	batch := Batch{Seq: 7, Events: []temporal.Event{{From: 0, To: 1, T: 10, F: 1}}}
	first, err := m.Ingest(batch)
	if err != nil {
		t.Fatal(err)
	}
	if first.Dup || first.Seq != 7 || first.Ingested != 1 {
		t.Fatalf("first apply ack = %+v", first)
	}
	again, err := m.Ingest(batch)
	if err != nil {
		t.Fatalf("resend of an applied batch rejected: %v", err)
	}
	if !again.Dup || again.Watermark != first.Watermark || again.Ingested != first.Ingested {
		t.Fatalf("resend ack = %+v, want recorded ack with Dup", again)
	}
	if st, _ := m.Stats(); st.Events != 1 {
		t.Fatalf("engine applied %d events after resend, want 1", st.Events)
	}
	// A stale seq (below the newest applied) is also a no-op.
	if _, err := m.Ingest(Batch{Seq: 3, Events: []temporal.Event{{From: 0, To: 1, T: 1, F: 1}}}); err != nil {
		t.Fatalf("stale-seq resend rejected: %v", err)
	}
	if st, _ := m.Stats(); st.Events != 1 {
		t.Fatal("stale-seq resend reached the engine")
	}
	// Untagged ingest (Seq 0) bypasses dedup and hits the engine's
	// admission rules as before.
	if _, err := m.Ingest(Batch{Events: []temporal.Event{{From: 0, To: 1, T: 5, F: 1}}}); !errors.Is(err, temporal.ErrBehindFrontier) {
		t.Fatalf("untagged behind-frontier batch: err=%v, want ErrBehindFrontier", err)
	}
}

// gateMember wraps a member with a hold switch so tests can build a
// replication backlog deterministically.
type gateMember struct {
	*LocalMember
	mu    sync.Mutex
	calls atomic.Int64
}

func (m *gateMember) hold()    { m.mu.Lock() }
func (m *gateMember) release() { m.mu.Unlock() }

func (m *gateMember) Ingest(b Batch) (IngestAck, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls.Add(1)
	return m.LocalMember.Ingest(b)
}

// TestPipelineBackpressureAndCoalescing: with a member held, appends queue
// up to MaxPending and the next Ingest blocks (backpressure) instead of
// queueing unboundedly; on release the backlog drains in coalesced calls
// (far fewer member calls than batches) and the stream is applied exactly.
func TestPipelineBackpressureAndCoalescing(t *testing.T) {
	inner, err := NewLocalMember("gated", LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gated := &gateMember{LocalMember: inner}
	c, err := New(Config{
		Members:        []Member{gated},
		Subs:           []stream.Subscription{{ID: "s", Motif: motif.MustPath(0, 1), Delta: 5}},
		RetryDelay:     time.Millisecond,
		MaxPending:     4,
		CoalesceEvents: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	gated.hold()
	const batches = 12
	unblocked := make(chan struct{})
	go func() {
		for i := 0; i < batches; i++ {
			if _, err := c.Ingest([]temporal.Event{{From: 0, To: 1, T: int64(100 * (i + 1)), F: 1}}); err != nil {
				t.Errorf("ingest %d: %v", i, err)
				break
			}
		}
		close(unblocked)
	}()
	select {
	case <-unblocked:
		t.Fatal("12 batches queued against MaxPending=4 without blocking")
	case <-time.After(100 * time.Millisecond):
		// Blocked, as backpressure demands.
	}
	st := c.Stats()
	if st.Backpressure == 0 {
		t.Fatalf("Backpressure = 0 while the feeder is blocked: %+v", st)
	}
	if st.LogEntries > 5 {
		t.Fatalf("LogEntries = %d with MaxPending=4: queue not bounded", st.LogEntries)
	}
	gated.release()
	<-unblocked
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, _ := gated.Stats(); got.Events != batches {
		t.Fatalf("member applied %d events, want %d", got.Events, batches)
	}
	// The held backlog must have been coalesced: strictly fewer member
	// calls than batches. (The exact count depends on scheduling; the
	// bound is what matters.)
	if calls := gated.calls.Load(); calls >= batches {
		t.Fatalf("replication made %d member calls for %d batches: coalescing inert", calls, batches)
	}
	if st := c.Stats(); st.LogEvents != 0 || st.LogEntries != 0 {
		t.Fatalf("drained log not trimmed: %+v", st)
	}
}

// TestReplicationLagStats: while a member is held, Stats and the gather
// status expose the pipeline position (acked seq, lag in entries/events)
// that /metrics reports as per-shard gauges.
func TestReplicationLagStats(t *testing.T) {
	inner, err := NewLocalMember("gated", LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gated := &gateMember{LocalMember: inner}
	fast, err := NewLocalMember("fast", LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Members:    []Member{gated, fast},
		Subs:       []stream.Subscription{{ID: "s", Motif: motif.MustPath(0, 1), Delta: 5}},
		RetryDelay: time.Millisecond,
		MaxPending: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	if _, err := c.Ingest([]temporal.Event{{From: 0, To: 1, T: 10, F: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	gated.hold()
	for i := 0; i < 3; i++ {
		if _, err := c.Ingest([]temporal.Event{{From: 0, To: 1, T: int64(100 * (i + 2)), F: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the fast member to ack everything; the gated one stays put.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Stats()
		var g, f MemberInfo
		for _, m := range st.Members {
			switch m.ID {
			case "gated":
				g = m
			case "fast":
				f = m
			}
		}
		if f.AckedSeq == st.HeadSeq && g.ReplLagEntries == 3 {
			if g.ReplLagEvents != 3 {
				t.Fatalf("gated ReplLagEvents = %d, want 3", g.ReplLagEvents)
			}
			if st.LogEntries != 3 {
				t.Fatalf("LogEntries = %d while the slowest member lags 3, want 3", st.LogEntries)
			}
			// One log: the first batch (acked by both) is the history, the
			// three held ones are still queued.
			if st.LogEvents != 3 || st.HistoryEvents != 1 {
				t.Fatalf("LogEvents = %d, HistoryEvents = %d while held; want 3 and 1", st.LogEvents, st.HistoryEvents)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lag never surfaced: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	gated.release()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	for _, m := range st.Members {
		if m.ReplLagEntries != 0 || m.ReplLagEvents != 0 {
			t.Fatalf("post-drain lag nonzero: %+v", m)
		}
	}
	if st.LogEvents != 0 || st.HistoryEvents != 4 || st.HistoryTrim != 0 {
		t.Fatalf("post-drain LogEvents = %d, HistoryEvents = %d, HistoryTrim = %d; want 0, 4, 0",
			st.LogEvents, st.HistoryEvents, st.HistoryTrim)
	}
}

// TestClusterPipelineStress races pipelined ingest against flush,
// membership churn (add / graceful remove / kill), and concurrent
// queries, on WAL-durable members, then verifies the served instance set
// still equals the batch algorithm on the full event log. Run under
// -race in CI (cluster-e2e job).
func TestClusterPipelineStress(t *testing.T) {
	mo1 := motif.MustPath(0, 1)
	mo2 := motif.MustPath(0, 1, 2)
	subs := []stream.Subscription{
		{ID: "edge", Motif: mo1, Delta: 5, Phi: 0},
		{ID: "chain", Motif: mo2, Delta: 5, Phi: 0},
		{ID: "cycle", Motif: motif.MustPath(0, 1, 0), Delta: 5, Phi: 0},
	}
	newDurable := func(id string) *LocalMember {
		m, err := NewLocalMember(id, LocalOptions{DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	members := []Member{newDurable("s0"), newDurable("s1"), newDurable("s2")}
	c, err := New(Config{
		Members:    members,
		Subs:       subs,
		RetryDelay: time.Millisecond,
		MaxPending: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	const batches = 250
	var log []temporal.Event
	var logMu sync.Mutex
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Flusher: end-of-stream markers interleaved with pipelined ingest.
	// The driver spaces batches > δ apart, so a flush between any two
	// batches never forecloses a window a later event could have grown.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := c.Flush(); err != nil && !errors.Is(err, ErrNoMembers) {
				t.Errorf("flush: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Query load: scatter-gathers and stats racing the pipeline.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, _, err := c.Instances("", 16); err != nil && !errors.Is(err, ErrNoMembers) {
				t.Errorf("instances: %v", err)
				return
			}
			if _, _, err := c.TopK("", 4); err != nil && !errors.Is(err, ErrNoMembers) {
				t.Errorf("topk: %v", err)
				return
			}
			_ = c.Stats()
		}
	}()

	// Membership churn: add a fresh durable member, then retire an old
	// one — alternating graceful drains and kills. The pool never drops
	// below two live members.
	wg.Add(1)
	go func() {
		defer wg.Done()
		pool := []string{"s0", "s1", "s2"}
		locals := map[string]*LocalMember{
			"s0": members[0].(*LocalMember), "s1": members[1].(*LocalMember), "s2": members[2].(*LocalMember),
		}
		for i := 3; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			id := fmt.Sprintf("s%d", i)
			nm := newDurable(id)
			if err := c.AddMember(nm); err != nil {
				t.Errorf("add %s: %v", id, err)
				return
			}
			pool = append(pool, id)
			locals[id] = nm
			victim := pool[0]
			pool = pool[1:]
			if i%2 == 0 {
				locals[victim].SetDown(true)
				if err := c.FailMember(victim); err != nil && !errors.Is(err, ErrNoMembers) {
					// The victim may already have been reaped by the
					// pipeline; both outcomes are correct.
					if _, ok := c.Placement()[victim]; ok {
						t.Errorf("fail %s: %v", victim, err)
						return
					}
				}
			} else {
				if err := c.RemoveMember(victim); err != nil {
					t.Errorf("remove %s: %v", victim, err)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Driver: pipelined ingest, every batch > δ past the previous one so
	// interleaved flushes are harmless.
	rng := rand.New(rand.NewSource(42))
	base := int64(100)
	for i := 0; i < batches; i++ {
		n := 1 + rng.Intn(4)
		batch := make([]temporal.Event, n)
		for j := range batch {
			batch[j] = temporal.Event{
				From: temporal.NodeID(rng.Intn(3)),
				To:   temporal.NodeID(rng.Intn(3)),
				T:    base + int64(rng.Intn(5)),
				F:    1 + rng.Float64(),
			}
			if batch[j].From == batch[j].To {
				batch[j].To = (batch[j].To + 1) % 3
			}
		}
		if _, err := c.Ingest(batch); err != nil {
			t.Fatalf("ingest batch %d: %v", i, err)
		}
		logMu.Lock()
		log = append(log, batch...)
		logMu.Unlock()
		base += 100
		if i%5 == 0 {
			// Pace the driver so flush/membership/query goroutines
			// genuinely interleave with a non-empty pipeline.
			time.Sleep(time.Millisecond)
		}
	}
	close(done)
	wg.Wait()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// Oracle: after all that churn the cluster still serves exactly the
	// batch-algorithm instance set over the full log (unbounded history
	// makes every failover and adoption lossless).
	sortedLog := append([]temporal.Event(nil), log...)
	g, err := temporal.NewGraph(sortedLog)
	if err != nil {
		t.Fatal(err)
	}
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
		gotKeys := map[string]bool{}
		for _, d := range ds {
			k := detKey(d)
			if gotKeys[k] {
				t.Errorf("sub %s: duplicate instance %s", sub.ID, k)
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
	}
	st := c.Stats()
	if st.Events != int64(len(log)) {
		t.Fatalf("coordinator Events = %d, want %d", st.Events, len(log))
	}
	t.Logf("stress: %d events, %d downs, %d moves, %d backpressure waits",
		st.Events, st.Downs, st.Moves, st.Backpressure)
}

// TestWALFailurePoisonsMember: when the engine applied a batch but the
// WAL append failed, the member fail-stops — a replication retry reports
// the broken shard (failover) instead of re-applying the batch (double
// detections) or rejecting it as diverged.
func TestWALFailurePoisonsMember(t *testing.T) {
	m, err := NewLocalMember("d", LocalOptions{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddSubscription(Handoff{Sub: SubSpec{ID: "s", Motif: "0-1", Delta: 5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest(Batch{Seq: 1, Events: []temporal.Event{{From: 0, To: 1, T: 10, F: 1}}}); err != nil {
		t.Fatal(err)
	}
	// Break the WAL out from under the member: the next append fails
	// after the engine has already applied.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	bad := Batch{Seq: 2, Events: []temporal.Event{{From: 0, To: 1, T: 20, F: 1}}}
	if _, err := m.Ingest(bad); !errors.Is(err, ErrMemberDown) {
		t.Fatalf("ingest with a broken WAL: err=%v, want ErrMemberDown", err)
	}
	// The retry the pipeline now performs must NOT reach the engine
	// again (the batch was applied once) and must keep reporting the
	// broken shard so the coordinator fails it over.
	if _, err := m.Ingest(bad); !errors.Is(err, ErrMemberDown) {
		t.Fatalf("retry against a poisoned member: err=%v, want ErrMemberDown", err)
	}
	st := m.eng.Stats()
	if st.EventsIngested != 2 {
		t.Fatalf("engine ingested %d events, want 2 (no double-apply through the poisoned path)", st.EventsIngested)
	}
}
