package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"flowmotif/internal/obs"
	"flowmotif/internal/stream"
)

// barrierTimeout is how long a barrier call waits for the other members
// before it gives up: a fail-safe for a serial fan-out, never reached by a
// concurrent one.
const barrierTimeout = 5 * time.Second

// barrier holds every member's call of the armed operation until all n
// members have entered it. A concurrent fan-out passes at once; a serial
// one never gets its first member through, and every call that gives up
// is recorded.
type barrier struct {
	mu       sync.Mutex
	op       string
	n        int
	entered  int
	open     chan struct{}
	timedOut []string
}

func (b *barrier) arm(op string, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.op, b.n, b.entered, b.open, b.timedOut = op, n, 0, make(chan struct{}), nil
}

func (b *barrier) wait(op, member string) error {
	b.mu.Lock()
	if op != b.op {
		b.mu.Unlock()
		return nil
	}
	open := b.open
	if b.entered++; b.entered == b.n {
		close(open)
	}
	b.mu.Unlock()
	select {
	case <-open:
		return nil
	case <-time.After(barrierTimeout):
		b.mu.Lock()
		b.timedOut = append(b.timedOut, member)
		b.mu.Unlock()
		return fmt.Errorf("%s on %s entered alone", op, member)
	}
}

// stragglers lists the members whose call of the armed operation gave up.
func (b *barrier) stragglers() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.timedOut
}

// barrierMember is a LocalMember whose fan-out calls wait on a shared
// barrier.
type barrierMember struct {
	*LocalMember
	b *barrier
}

func (m *barrierMember) Stats() (MemberStats, error) {
	if err := m.b.wait("stats", m.ID()); err != nil {
		return MemberStats{}, err
	}
	return m.LocalMember.Stats()
}

func (m *barrierMember) Traces(trace string) ([]obs.SpanRecord, error) {
	if err := m.b.wait("traces", m.ID()); err != nil {
		return nil, err
	}
	return m.LocalMember.Traces(trace)
}

func (m *barrierMember) Flush() (IngestAck, error) {
	if err := m.b.wait("flush", m.ID()); err != nil {
		return IngestAck{}, err
	}
	return m.LocalMember.Flush()
}

func (m *barrierMember) Instances(sub string, limit int) (QueryResult, error) {
	if err := m.b.wait("instances", m.ID()); err != nil {
		return QueryResult{}, err
	}
	return m.LocalMember.Instances(sub, limit)
}

func (m *barrierMember) TopK(sub string, k int) (QueryResult, error) {
	if err := m.b.wait("topk", m.ID()); err != nil {
		return QueryResult{}, err
	}
	return m.LocalMember.TopK(sub, k)
}

// TestClusterFanOutConcurrent: every member fan-out — stats, traces,
// flush and both gathered queries — asks its members at once. Each
// barrier member blocks until all three members' calls have entered, so
// a fan-out that asks one member after another never gets past the
// first.
func TestClusterFanOutConcurrent(t *testing.T) {
	const n = 3
	b := &barrier{}
	members := make([]Member, n)
	for i := range members {
		lm, err := NewLocalMember(fmt.Sprintf("m%d", i), LocalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = &barrierMember{LocalMember: lm, b: b}
	}
	c, err := New(Config{Members: members, Subs: catalogSubs(), RetryDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	feedRandomBatches(t, c, clusterEvents(t, 7)[:300], 1)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	ops := []struct {
		op  string
		run func() error
	}{
		{"stats", func() error {
			for _, m := range c.Stats().Members {
				if m.Lag < 0 {
					return fmt.Errorf("member %s: no stats row", m.ID)
				}
			}
			return nil
		}},
		{"traces", func() error { c.Traces("0123456789abcdef0123456789abcdef"); return nil }},
		{"instances", func() error { _, _, err := c.Instances("", 10); return err }},
		{"topk", func() error { _, _, err := c.TopK("", 10); return err }},
		{"flush", func() error { _, err := c.Flush(); return err }},
	}
	for _, o := range ops {
		b.arm(o.op, n)
		if err := o.run(); err != nil {
			t.Errorf("%s: %v", o.op, err)
		}
		if late := b.stragglers(); len(late) > 0 {
			t.Errorf("%s: members %v waited alone; the fan-out is serial", o.op, late)
		}
	}
}

// TestClusterRoutedQueryErrors: a routed query asks only the owner and
// returns its error unchanged — a down owner is ErrMemberDown (503 at the
// front door), an unknown subscription ErrUnknownSub (404).
func TestClusterRoutedQueryErrors(t *testing.T) {
	sub := stream.Subscription{ID: "s", Motif: catalogSubs()[0].Motif, Delta: 300}
	c, locals := newTestCluster(t, 2, []stream.Subscription{sub})
	owner := c.Placement()["s"]
	for _, lm := range locals {
		if lm.ID() == owner {
			lm.SetDown(true)
		}
	}
	if _, _, err := c.TopK("s", 5); !errors.Is(err, ErrMemberDown) {
		t.Errorf("routed TopK on a down owner: err = %v, want ErrMemberDown", err)
	}
	if _, _, err := c.Instances("s", 5); !errors.Is(err, ErrMemberDown) {
		t.Errorf("routed Instances on a down owner: err = %v, want ErrMemberDown", err)
	}
	if _, _, err := c.TopK("nope", 5); !errors.Is(err, ErrUnknownSub) {
		t.Errorf("routed TopK of an unknown subscription: err = %v, want ErrUnknownSub", err)
	}
}
