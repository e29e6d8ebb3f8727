package cluster

import (
	"fmt"
	"sync/atomic"

	"flowmotif/internal/obs"
	"flowmotif/internal/store"
	"flowmotif/internal/stream"
)

// LocalOptions parameterizes an in-process member.
type LocalOptions struct {
	// Recent and TopK bound the member's recent-detection ring and its
	// per-subscription top list (defaults: NewQuerySinks).
	Recent int
	TopK   int
	// DataDir, when non-empty, gives the member its own durable segment
	// store: every acknowledged broadcast batch is appended to a WAL under
	// this directory (one data dir per shard), and Flush and Close
	// checkpoint the engine and sink state next to it.
	DataDir string
	// SyncWrites fsyncs the member WAL after every acknowledged batch.
	SyncWrites bool
}

// LocalMember is the in-process Member: a Shard driven directly by a
// coordinator in the same process, plus an id and a kill switch.
// flowmotifd -shards N serves N of these behind one coordinator; tests and
// examples use them for single-process clusters.
type LocalMember struct {
	*Shard
	id   string
	down atomic.Bool // test/ops kill switch
}

// NewLocalMember builds an in-process member with no subscriptions; the
// coordinator places them. A durable member whose last checkpoint was
// taken with subscriptions placed therefore reopens by replaying its whole
// WAL (that snapshot does not fit the empty engine): the warmed engine's
// frontier matches the WAL's, and the coordinator re-seeds subscription
// state through catch-up placement, which the engine accepts because its
// log is a (possibly empty) suffix of the same stream.
func NewLocalMember(id string, opts LocalOptions) (*LocalMember, error) {
	if id == "" {
		return nil, fmt.Errorf("cluster: member id required")
	}
	recent, topk := NewQuerySinks(opts.Recent, opts.TopK)
	// One registry per member: the engine's and store's instruments land
	// together, and Stats ships the whole snapshot to the coordinator.
	reg := obs.NewRegistry()
	eng, err := stream.NewEngine(stream.Config{Obs: reg},
		stream.MultiSink{recent, topk})
	if err != nil {
		return nil, err
	}
	var st *store.Store
	if opts.DataDir != "" {
		if st, err = store.Open(opts.DataDir, store.Options{Sync: opts.SyncWrites, Obs: reg}); err != nil {
			return nil, err
		}
	}
	sh, err := NewShard(eng, recent, topk, st)
	if err != nil {
		return nil, fmt.Errorf("cluster: member %s: %w", id, err)
	}
	return &LocalMember{Shard: sh, id: id}, nil
}

// Replayed reports how many WAL events warmed the engine at open (durable
// members only).
func (m *LocalMember) Replayed() int64 { return m.Recovery().Replayed }

// ID implements Member.
func (m *LocalMember) ID() string { return m.id }

// SetDown toggles the member's kill switch: while down, every call fails
// with ErrMemberDown — the in-process stand-in for a crashed shard, used
// by failover tests and the cluster demo.
func (m *LocalMember) SetDown(down bool) { m.down.Store(down) }

func (m *LocalMember) check() error {
	if m.down.Load() {
		return fmt.Errorf("%w: %s", ErrMemberDown, m.id)
	}
	return nil
}

// Ingest implements Member.
func (m *LocalMember) Ingest(b Batch) (IngestAck, error) {
	if err := m.check(); err != nil {
		return IngestAck{}, err
	}
	parent, _ := obs.ParseTraceparent(b.Traceparent)
	return m.Shard.Ingest(b.Events, b.Seq, parent)
}

// Flush implements Member.
func (m *LocalMember) Flush() (IngestAck, error) {
	if err := m.check(); err != nil {
		return IngestAck{}, err
	}
	return m.Shard.Flush(obs.SpanContext{})
}

// AddSubscription implements Member.
func (m *LocalMember) AddSubscription(h Handoff) error {
	if err := m.check(); err != nil {
		return err
	}
	return m.Shard.AddSubscription(h)
}

// RemoveSubscription implements Member.
func (m *LocalMember) RemoveSubscription(id string) (Handoff, error) {
	if err := m.check(); err != nil {
		return Handoff{}, err
	}
	return m.Shard.RemoveSubscription(id)
}

// Instances implements Member.
func (m *LocalMember) Instances(sub string, limit int) (QueryResult, error) {
	if err := m.check(); err != nil {
		return QueryResult{}, err
	}
	return m.Shard.Instances(sub, limit)
}

// TopK implements Member.
func (m *LocalMember) TopK(sub string, k int) (QueryResult, error) {
	if err := m.check(); err != nil {
		return QueryResult{}, err
	}
	return m.Shard.TopK(sub, k)
}

// Stats implements Member.
func (m *LocalMember) Stats() (MemberStats, error) {
	if err := m.check(); err != nil {
		return MemberStats{}, err
	}
	return m.Shard.Stats(m.id), nil
}

// Traces implements Member: the member's flight-recorder spans for one
// trace, straight from the engine's tracer.
func (m *LocalMember) Traces(trace string) ([]obs.SpanRecord, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	return m.Engine().Tracer().Spans(trace), nil
}
