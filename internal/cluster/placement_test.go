package cluster

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// faultyMember wraps a LocalMember and fails one call on cue: the n-th
// RemoveSubscription, AddSubscription or Flush after cue fails with err. A
// member failing with ErrMemberDown has died and stays down; any other
// error is a semantic rejection that leaves the member as it was.
type faultyMember struct {
	*LocalMember
	mu  sync.Mutex
	op  string // "remove", "add" or "flush"
	n   int    // calls of op until the fault
	err error
}

func (m *faultyMember) cue(op string, n int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.op, m.n, m.err = op, n, err
}

func (m *faultyMember) fault(op string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil || op != m.op {
		return nil
	}
	if m.n--; m.n > 0 {
		return nil
	}
	err := m.err
	m.err = nil
	if errors.Is(err, ErrMemberDown) {
		m.SetDown(true)
	}
	return err
}

func (m *faultyMember) AddSubscription(h Handoff) error {
	if err := m.fault("add"); err != nil {
		return err
	}
	return m.LocalMember.AddSubscription(h)
}

func (m *faultyMember) RemoveSubscription(id string) (Handoff, error) {
	if err := m.fault("remove"); err != nil {
		return Handoff{}, err
	}
	return m.LocalMember.RemoveSubscription(id)
}

func (m *faultyMember) Flush() (IngestAck, error) {
	if err := m.fault("flush"); err != nil {
		return IngestAck{}, err
	}
	return m.LocalMember.Flush()
}

func newFaultyMember(t testing.TB, id string) *faultyMember {
	t.Helper()
	lm, err := NewLocalMember(id, LocalOptions{Recent: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	return &faultyMember{LocalMember: lm}
}

// faultCluster builds a coordinator over n faulty members m0..m(n-1) with
// the catalog subscriptions.
func faultCluster(t *testing.T, n int) (*Coordinator, map[string]*faultyMember) {
	t.Helper()
	fm := map[string]*faultyMember{}
	members := make([]Member, n)
	for i := range members {
		m := newFaultyMember(t, fmt.Sprintf("m%d", i))
		fm[m.ID()], members[i] = m, m
	}
	c, err := New(Config{Members: members, Subs: catalogSubs(), RetryDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, fm
}

// checkPlacement asserts the placement invariants: every subscription is
// owned by exactly one live member or listed in Unplaced, and Placement()
// agrees with each live member's own subscription set.
func checkPlacement(t *testing.T, c *Coordinator, fm map[string]*faultyMember) {
	t.Helper()
	st := c.Health()
	placement := c.Placement()
	live := map[string]bool{}
	for _, m := range st.Members {
		live[m.ID] = true
	}
	for sub := range c.Subscriptions() {
		owner, placed := placement[sub]
		if placed == slices.Contains(st.Unplaced, sub) {
			t.Errorf("sub %s: placed on %q and unplaced=%v", sub, owner, !placed)
		}
		if placed && !live[owner] {
			t.Errorf("sub %s placed on %q, not a live member", sub, owner)
		}
	}
	for id := range live {
		var want []string
		for sub, owner := range placement {
			if owner == id {
				want = append(want, sub)
			}
		}
		got := fm[id].Shard.Stats(id).Subs
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("member %s serves %v, placement says %v", id, got, want)
		}
	}
}

// ownedBy lists the subscriptions placed on a member, sorted.
func ownedBy(c *Coordinator, id string) []string {
	var out []string
	for sub, owner := range c.Placement() {
		if owner == id {
			out = append(out, sub)
		}
	}
	slices.Sort(out)
	return out
}

// targetOf predicts a subscription's owner over the given members.
func targetOf(t *testing.T, sub string, members []string) string {
	t.Helper()
	for _, s := range catalogSubs() {
		if s.ID == sub {
			return PlacementOf([]stream.Subscription{s}, members)[sub]
		}
	}
	t.Fatalf("no subscription %s", sub)
	return ""
}

// adopt joins a fresh member m9, whose placement pass re-places what an
// earlier one parked.
func adopt(t *testing.T, c *Coordinator, fm map[string]*faultyMember) {
	t.Helper()
	fm["m9"] = newFaultyMember(t, "m9")
	if err := c.AddMember(fm["m9"]); err != nil {
		t.Fatal(err)
	}
}

// TestClusterHandoffFaults drives the placement pass through handoff
// faults injected by faultyMember: after each one every subscription is
// owned by exactly one live member or parked unplaced, the members agree
// with Placement(), and, once nothing is parked, the cluster still serves
// exactly the batch algorithm's instance set.
func TestClusterHandoffFaults(t *testing.T) {
	evs := clusterEvents(t, 11)
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	half := len(evs) / 2
	rows := []struct {
		name    string
		members int
		// fault injects the fault and runs the membership change; it
		// returns that change's error.
		fault func(t *testing.T, c *Coordinator, fm map[string]*faultyMember) error
		// check asserts the row's own outcome and may repair what it
		// parked; the invariants and the oracle follow.
		check func(t *testing.T, c *Coordinator, fm map[string]*faultyMember, err error)
	}{
		{
			name:    "failover target dies mid-handoff",
			members: 4,
			fault: func(t *testing.T, c *Coordinator, fm map[string]*faultyMember) error {
				orphans := ownedBy(c, "m0")
				if len(orphans) == 0 {
					t.Fatal("premise: m0 owns nothing")
				}
				target := targetOf(t, orphans[0], []string{"m1", "m2", "m3"})
				fm[target].cue("add", 1, ErrMemberDown)
				fm["m0"].SetDown(true)
				return c.FailMember("m0")
			},
			check: func(t *testing.T, c *Coordinator, fm map[string]*faultyMember, err error) {
				if err != nil {
					t.Fatalf("cascading failover: %v", err)
				}
				if st := c.Health(); st.Downs != 2 || len(st.Members) != 2 {
					t.Fatalf("Downs = %d with %d members, want 2 downs and 2 members", st.Downs, len(st.Members))
				}
			},
		},
		{
			name:    "move target dies, handoff returns to its source",
			members: 3,
			fault: func(t *testing.T, c *Coordinator, fm map[string]*faultyMember) error {
				m3 := newFaultyMember(t, "m3")
				won := 0
				for _, s := range catalogSubs() {
					if targetOf(t, s.ID, []string{"m0", "m1", "m2", "m3"}) == "m3" {
						won++
					}
				}
				if won < 2 {
					t.Fatalf("premise: m3 wins %d subscriptions, want at least 2", won)
				}
				// The first handoff lands; m3 dies on the second, so one
				// subscription regenerates from history and the other
				// returns to its source with its sink state.
				m3.cue("add", 2, ErrMemberDown)
				fm["m3"] = m3
				before := c.Placement()
				err := c.AddMember(m3)
				if after := c.Placement(); !maps.Equal(before, after) {
					t.Errorf("placement changed although the joiner died:\nbefore %v\nafter  %v", before, after)
				}
				return err
			},
			check: func(t *testing.T, c *Coordinator, fm map[string]*faultyMember, err error) {
				if err != nil {
					t.Fatalf("join of a dying member: %v", err)
				}
				if st := c.Health(); st.Downs != 1 || len(st.Members) != 3 {
					t.Fatalf("Downs = %d with %d members, want 1 down and 3 members", st.Downs, len(st.Members))
				}
			},
		},
		{
			name:    "source dies mid-drain",
			members: 3,
			fault: func(t *testing.T, c *Coordinator, fm map[string]*faultyMember) error {
				if n := len(ownedBy(c, "m1")); n < 2 {
					t.Fatalf("premise: m1 owns %d subscriptions, want at least 2", n)
				}
				fm["m1"].cue("remove", 2, ErrMemberDown)
				return c.RemoveMember("m1")
			},
			check: func(t *testing.T, c *Coordinator, fm map[string]*faultyMember, err error) {
				if err != nil {
					t.Fatalf("drain degraded to failover but errored: %v", err)
				}
				if st := c.Health(); st.Downs != 1 || len(st.Members) != 2 {
					t.Fatalf("Downs = %d with %d members, want 1 down and 2 members", st.Downs, len(st.Members))
				}
			},
		},
		{
			name:    "semantic rejection parks the subscription",
			members: 3,
			fault: func(t *testing.T, c *Coordinator, fm map[string]*faultyMember) error {
				owned := ownedBy(c, "m1")
				if len(owned) == 0 {
					t.Fatal("premise: m1 owns nothing")
				}
				target := targetOf(t, owned[0], []string{"m0", "m2"})
				fm[target].cue("add", 1, errors.New("rejected by test"))
				return c.RemoveMember("m1")
			},
			check: func(t *testing.T, c *Coordinator, fm map[string]*faultyMember, err error) {
				if err == nil || errors.Is(err, ErrMemberDown) || errors.Is(err, ErrNoMembers) {
					t.Fatalf("rejected installation: err = %v, want the semantic rejection", err)
				}
				st := c.Health()
				if st.Downs != 0 || len(st.Members) != 2 || len(st.Unplaced) != 1 || !st.Degraded {
					t.Fatalf("Downs = %d, %d members, unplaced %v, degraded %v; want no down, 2 members, one parked",
						st.Downs, len(st.Members), st.Unplaced, st.Degraded)
				}
				// The next pass adopts the parked subscription from history.
				adopt(t, c, fm)
			},
		},
		{
			name:    "rejected removal parks the drained subscription",
			members: 3,
			fault: func(t *testing.T, c *Coordinator, fm map[string]*faultyMember) error {
				fm["m1"].cue("remove", 1, errors.New("rejected by test"))
				return c.RemoveMember("m1")
			},
			check: func(t *testing.T, c *Coordinator, fm map[string]*faultyMember, err error) {
				if err == nil || errors.Is(err, ErrMemberDown) {
					t.Fatalf("rejected removal: err = %v, want the semantic rejection", err)
				}
				if st := c.Health(); st.Downs != 0 || len(st.Members) != 2 || len(st.Unplaced) != 1 {
					t.Fatalf("Downs = %d, %d members, unplaced %v; want no down, 2 members, one parked",
						st.Downs, len(st.Members), st.Unplaced)
				}
				adopt(t, c, fm)
			},
		},
		{
			name:    "drain target dies, the leaving member is the last",
			members: 2,
			fault: func(t *testing.T, c *Coordinator, fm map[string]*faultyMember) error {
				if len(ownedBy(c, "m1")) == 0 {
					t.Fatal("premise: m1 owns nothing")
				}
				fm["m0"].cue("add", 1, ErrMemberDown)
				return c.RemoveMember("m1")
			},
			check: func(t *testing.T, c *Coordinator, fm map[string]*faultyMember, err error) {
				if !errors.Is(err, ErrNoMembers) {
					t.Fatalf("draining onto a dying last survivor: err = %v, want ErrNoMembers", err)
				}
				st := c.Health()
				if st.Downs != 1 || len(st.Members) != 1 || st.Members[0].ID != "m1" || len(st.Unplaced) != 0 {
					t.Fatalf("Downs = %d, members %v, unplaced %v; want m1 kept serving everything",
						st.Downs, st.Members, st.Unplaced)
				}
			},
		},
		{
			name:    "last member lost, then adoption",
			members: 2,
			fault: func(t *testing.T, c *Coordinator, fm map[string]*faultyMember) error {
				if len(ownedBy(c, "m0")) == 0 {
					t.Fatal("premise: m0 owns nothing")
				}
				fm["m1"].cue("add", 1, ErrMemberDown)
				fm["m0"].SetDown(true)
				return c.FailMember("m0")
			},
			check: func(t *testing.T, c *Coordinator, fm map[string]*faultyMember, err error) {
				if !errors.Is(err, ErrNoMembers) {
					t.Fatalf("losing every member: err = %v, want ErrNoMembers", err)
				}
				st := c.Health()
				if st.Downs != 2 || len(st.Members) != 0 || len(st.Unplaced) != st.Subscriptions {
					t.Fatalf("Downs = %d, %d members, %d of %d unplaced; want all lost",
						st.Downs, len(st.Members), len(st.Unplaced), st.Subscriptions)
				}
				adopt(t, c, fm)
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c, fm := faultCluster(t, row.members)
			feedRandomBatches(t, c, evs[:half], 1)
			if err := c.Drain(); err != nil {
				t.Fatal(err)
			}
			err := row.fault(t, c, fm)
			checkPlacement(t, c, fm)
			row.check(t, c, fm, err)
			checkPlacement(t, c, fm)
			if st := c.Health(); len(st.Unplaced) > 0 {
				return
			}
			feedRandomBatches(t, c, evs[half:], 2)
			if _, err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if total := checkOracle(t, c, g, catalogSubs()); total == 0 {
				t.Fatal("degenerate test: batch search found no instances")
			}
		})
	}
}

// TestClusterRemoveDeadMember: a member that dies before its drain is
// failed over by the drain, and that is not an error.
func TestClusterRemoveDeadMember(t *testing.T) {
	evs := clusterEvents(t, 11)
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	c, locals := newTestCluster(t, 3, catalogSubs())
	half := len(evs) / 2
	feedRandomBatches(t, c, evs[:half], 1)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	locals[0].SetDown(true)
	if err := c.RemoveMember("m0"); err != nil {
		t.Fatalf("draining a dead member: %v", err)
	}
	st := c.Health()
	if st.Downs != 1 || len(st.Unplaced) != 0 || len(st.Members) != 2 {
		t.Fatalf("Downs = %d, unplaced %v, %d members; want 1 down, none unplaced, 2 members",
			st.Downs, st.Unplaced, len(st.Members))
	}
	feedRandomBatches(t, c, evs[half:], 2)
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, c, g, catalogSubs())
}

// TestClusterAddDeadMember: a member that is dead before its first
// handoff is failed over by its own join, and that is not an error; what
// was handed to it returns to its source, which counts no move.
func TestClusterAddDeadMember(t *testing.T) {
	evs := clusterEvents(t, 11)
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := newTestCluster(t, 2, catalogSubs())
	half := len(evs) / 2
	feedRandomBatches(t, c, evs[:half], 1)
	m3, err := NewLocalMember("m3", LocalOptions{Recent: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	var won bool
	for _, owner := range PlacementOf(catalogSubs(), []string{"m0", "m1", "m3"}) {
		won = won || owner == "m3"
	}
	if !won {
		t.Fatal("premise: m3 wins no subscription")
	}
	m3.SetDown(true)
	before, movesBefore := c.Placement(), c.Health().Moves
	if err := c.AddMember(m3); err != nil {
		t.Fatalf("adding a dead member: %v", err)
	}
	st := c.Health()
	if st.Downs != 1 || st.Moves != movesBefore || len(st.Members) != 2 {
		t.Fatalf("Downs = %d, Moves %d -> %d, %d members; want 1 down, no move, 2 members",
			st.Downs, movesBefore, st.Moves, len(st.Members))
	}
	if after := c.Placement(); !maps.Equal(before, after) {
		t.Fatalf("placement changed:\nbefore %v\nafter  %v", before, after)
	}
	feedRandomBatches(t, c, evs[half:], 2)
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, c, g, catalogSubs())
}

// TestClusterFlushFailover: a member that applied every batch dies in the
// flush. The flush fails it over, regenerates its subscriptions on the
// survivors (which had already flushed) and flushes them again, so the
// cluster still serves exactly the batch algorithm's instance set.
func TestClusterFlushFailover(t *testing.T) {
	evs := clusterEvents(t, 11)
	g, err := temporal.NewGraph(evs)
	if err != nil {
		t.Fatal(err)
	}
	c, fm := faultCluster(t, 3)
	feedRandomBatches(t, c, evs, 1)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	orphans := ownedBy(c, "m1")
	if len(orphans) == 0 {
		t.Fatal("premise: m1 owns nothing")
	}
	fm["m1"].cue("flush", 1, ErrMemberDown)
	if _, err := c.Flush(); err != nil {
		t.Fatalf("flush with a member dying in it: %v", err)
	}
	st := c.Health()
	if st.Downs != 1 || len(st.Members) != 2 || len(st.Unplaced) != 0 {
		t.Fatalf("Downs = %d, %d members, unplaced %v; want 1 down, 2 members, none unplaced",
			st.Downs, len(st.Members), st.Unplaced)
	}
	placement := c.Placement()
	for _, sub := range orphans {
		if owner := placement[sub]; owner == "" || owner == "m1" {
			t.Errorf("sub %s of the dead member placed on %q", sub, owner)
		}
	}
	checkPlacement(t, c, fm)
	if total := checkOracle(t, c, g, catalogSubs()); total == 0 {
		t.Fatal("degenerate test: batch search found no instances")
	}
}
