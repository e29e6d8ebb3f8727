package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"flowmotif/internal/obs"
	"flowmotif/internal/store"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// RecoveryStats reports what NewShard rebuilt from a store.
type RecoveryStats struct {
	// FromSnapshot is true when a snapshot seeded the engine state.
	FromSnapshot bool `json:"fromSnapshot"`
	// SnapshotSeq is the WAL position of that snapshot.
	SnapshotSeq int64 `json:"snapshotSeq"`
	// Replayed counts the WAL-tail events re-ingested after the snapshot.
	Replayed int64 `json:"replayed"`
}

// shardSnapshot is the snapshot payload: the engine state plus the query
// sinks' contents, so a restart resumes with Instances and TopK intact.
type shardSnapshot struct {
	Engine *stream.EngineSnapshot `json:"engine"`
	Recent stream.MemorySinkState `json:"recent"`
	TopK   stream.TopKSinkState   `json:"topk"`
}

// Shard is the one admission core every entrance to a shard runs: a stream
// engine, its query sinks and an optional durable store, with seq-tagged
// resend dedup, engine-then-WAL append under fail-stop poisoning,
// flush-with-checkpoint, snapshot, recovery and subscription handoff
// (handoff.go). LocalMember is a Shard plus an id and a kill switch;
// server.Server is a Shard plus transports (JSON handlers and the wire
// listener). Its errors form one taxonomy: ErrMemberDown for a fail-stopped
// shard, temporal.ErrBehindFrontier for an order violation, ErrUnknownSub for
// an unplaced subscription, anything else a semantic rejection.
type Shard struct {
	eng       *stream.Engine
	recent    *stream.MemorySink
	topk      *stream.TopKSink
	st        *store.Store // nil when not durable
	recovered RecoveryStats

	// subMu guards subIDs, which handoffs mutate at runtime.
	subMu  sync.RWMutex
	subIDs map[string]bool

	// lastSeq/lastAck make seq-tagged ingest idempotent: a resend of an
	// already-applied replication batch (its ack was lost in transit)
	// answers with the recorded ack instead of a behind-frontier
	// rejection. Guarded by ingestMu. Not persisted: after a restart a
	// resend is rejected as behind-frontier and the coordinator fails the
	// member over, regenerating from history.
	lastSeq int64
	lastAck IngestAck
	// walErr poisons ingest after a WAL append failed post-apply: the
	// engine and WAL have diverged, so the shard fail-stops ingest (every
	// batch reports ErrMemberDown) instead of re-applying a retried batch
	// — the dedup record is only written on full success — or silently
	// recording a WAL with a hole. A restart recovers from the WAL +
	// snapshot. Guarded by ingestMu.
	walErr error

	// ingestMu serializes ingest, flush, handoffs and snapshot *capture* so
	// (a) the per-batch "detections finalized by this batch" count is not
	// interleaved by a concurrent writer, (b) engine ingest and WAL append
	// form one atomic unit, and (c) a snapshot's WAL seq always matches the
	// engine state it captures.
	ingestMu sync.Mutex
	// snapMu serializes snapshot persistence (marshal + write + rename),
	// which deliberately happens *outside* ingestMu so a slow checkpoint
	// of a large engine state never stalls ingestion. Lock order where
	// both are needed: snapMu before ingestMu.
	snapMu sync.Mutex
}

// NewQuerySinks builds the two sinks a shard answers GET /instances and
// /topk from, which its engine must emit into: the ring of recent
// detections and the per-subscription best list. A capacity <= 0 takes the
// default (4096 recent, 50 best), stated here for every kind of shard.
func NewQuerySinks(recent, topk int) (*stream.MemorySink, *stream.TopKSink) {
	if recent <= 0 {
		recent = 4096
	}
	if topk <= 0 {
		topk = 50
	}
	return stream.NewMemorySink(recent), stream.NewTopKSink(topk)
}

// NewShard assembles a shard from parts its caller built from its own
// configuration: eng must emit into recent and topk. With st non-nil the
// shard is durable and takes ownership of the store (Close closes it, as
// does a failed recovery): the newest usable snapshot is restored into the
// engine and sinks, then the WAL tail is replayed through normal
// ingestion, regenerating every detection a crash lost. If no snapshot is
// usable (none taken, corrupt, or taken under a different subscription
// set — where an engine that starts empty lands if its last checkpoint was
// taken with subscriptions placed), the whole WAL is replayed from
// scratch: the log, not the snapshot, is the source of truth, and replay
// leaves the engine's frontier matching the WAL's so neither rejects a
// batch the other accepts.
func NewShard(eng *stream.Engine, recent *stream.MemorySink, topk *stream.TopKSink, st *store.Store) (*Shard, error) {
	s := &Shard{eng: eng, recent: recent, topk: topk, st: st, subIDs: map[string]bool{}}
	for _, sub := range eng.Subscriptions() {
		s.subIDs[sub.ID] = true
	}
	if st != nil {
		if err := s.recover(); err != nil {
			st.Close()
			return nil, fmt.Errorf("cluster: shard recovery: %w", err)
		}
	}
	return s, nil
}

// recover restores the newest usable snapshot and replays the WAL tail.
func (s *Shard) recover() error {
	from := int64(0)
	snap, err := s.st.LoadSnapshot()
	if err != nil {
		return err
	}
	if snap != nil {
		var ss shardSnapshot
		// A failed restore (e.g. the operator changed the -sub set) is not
		// fatal: fall through to a full WAL replay.
		if json.Unmarshal(snap.Payload, &ss) == nil && ss.Engine != nil && s.eng.Restore(ss.Engine) == nil {
			s.recent.Restore(ss.Recent)
			s.topk.Restore(ss.TopK)
			s.recovered.FromSnapshot = true
			s.recovered.SnapshotSeq = snap.Seq
			from = snap.Seq
		}
	}
	batch := make([]temporal.Event, 0, 4096)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		_, err := s.eng.Ingest(batch)
		batch = batch[:0]
		return err
	}
	var ingestErr error
	err = s.st.Replay(from, func(_ int64, ev temporal.Event) bool {
		batch = append(batch, ev)
		s.recovered.Replayed++
		if len(batch) == cap(batch) {
			ingestErr = flush()
		}
		return ingestErr == nil
	})
	if err == nil {
		err = ingestErr
	}
	if err == nil {
		err = flush()
	}
	return err
}

// Engine returns the shard's stream engine (stats, subscriptions, tracer).
func (s *Shard) Engine() *stream.Engine { return s.eng }

// Store returns the shard's durable store (nil when not durable).
func (s *Shard) Store() *store.Store { return s.st }

// Recovery reports what NewShard rebuilt from the store (zero value for a
// non-durable shard or an empty data dir).
func (s *Shard) Recovery() RecoveryStats { return s.recovered }

// Ingest applies one batch: seq-tagged resend dedup, engine apply, WAL
// append with fail-stop poisoning, and last-ack recording, all as one
// atomic unit under ingestMu. A batch whose seq is positive and at or below
// the last applied one is a duplicate resend (the sender never saw the
// ack): it is answered with the recorded ack, Dup set, and the engine
// untouched. seq 0 marks an untagged batch.
//
//flowmotif:hotpath
func (s *Shard) Ingest(evs []temporal.Event, seq int64, parent obs.SpanContext) (IngestAck, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.walErr != nil {
		return IngestAck{}, fmt.Errorf("%w: wal broken, ingest fail-stopped (restart to recover): %v", ErrMemberDown, s.walErr)
	}
	if seq > 0 && seq <= s.lastSeq {
		ack := s.lastAck
		ack.Dup = true
		return ack, nil
	}
	ack, err := s.eng.IngestTraced(evs, parent)
	if err != nil {
		return IngestAck{}, failStopped(err)
	}
	if s.st != nil {
		if perr := s.st.Append(evs); perr != nil {
			// The engine applied the batch but the WAL did not: poison
			// ingest (fail-stop) so a replication retry cannot re-apply the
			// batch and later batches cannot widen the engine/WAL gap.
			s.walErr = perr
			if seq > 0 {
				s.lastSeq = seq
			}
			return IngestAck{}, fmt.Errorf("%w: wal append: %v", ErrMemberDown, perr)
		}
	}
	out := IngestAck{Ingested: ack.Ingested, Watermark: ack.Watermark, Detections: ack.Detections, Seq: seq, Trace: ack.Trace}
	if seq > 0 {
		s.lastSeq = seq
		s.lastAck = out
	}
	return out, nil
}

// failStopped reports an engine that poisoned itself (partial batch
// append) as the shard being down, so a coordinator fails it over and
// regenerates its subscriptions from history exactly as for the WAL
// poison; like that one, only a restart recovers. Other errors pass.
func failStopped(err error) error {
	if errors.Is(err, stream.ErrFailStopped) {
		return fmt.Errorf("%w: %v", ErrMemberDown, err)
	}
	return err
}

// Flush closes every still-open window (end-of-stream marker). A
// fail-stopped engine flushes nothing, so it reports the shard down
// instead of an empty success. A durable shard checkpoints: a flush
// forecloses windows beyond the watermark, and the snapshot makes that
// frontier durable, so a post-crash replay cannot re-open (and re-emit
// from) windows the flush already closed.
func (s *Shard) Flush(parent obs.SpanContext) (IngestAck, error) {
	if err := s.eng.Err(); err != nil {
		return IngestAck{}, failStopped(err)
	}
	var ack stream.Ack
	flush := func() { ack = s.eng.FlushTraced(parent) }
	if s.st == nil {
		s.ingestMu.Lock()
		flush()
		s.ingestMu.Unlock()
	} else if _, err := s.checkpoint(flush); err != nil {
		return IngestAck{}, fmt.Errorf("%w: persist flush: %v", ErrMemberDown, err)
	}
	return IngestAck{Watermark: ack.Watermark, Detections: ack.Detections, Trace: ack.Trace}, nil
}

// Snapshot checkpoints the engine and sink state to the store, returning
// the WAL seq it reflects. Recovery after a crash then replays only the
// WAL tail past this point.
func (s *Shard) Snapshot() (int64, error) {
	if s.st == nil {
		return 0, errors.New("cluster: shard is not durable (no data dir configured)")
	}
	return s.checkpoint(nil)
}

// checkpoint runs pre (if any) and captures the state under ingestMu, so
// the captured WAL seq and engine state agree, then serializes and writes
// the capture — a consistent point-in-time copy — outside it: only the
// in-memory capture blocks ingestion. snapMu orders concurrent checkpoints
// so an older capture can never overwrite a newer one. A fail-stopped
// engine refuses the capture (see stream.ErrFailStopped) — checkpointing
// its diverged log would launder the partial batch into the authoritative
// recovery state.
func (s *Shard) checkpoint(pre func()) (int64, error) {
	s.snapMu.Lock() // before ingestMu, per the documented lock order
	defer s.snapMu.Unlock()
	s.ingestMu.Lock()
	if pre != nil {
		pre()
	}
	eng, err := s.eng.Snapshot()
	if err != nil {
		s.ingestMu.Unlock()
		return 0, err
	}
	seq := s.st.Seq()
	snap := shardSnapshot{Engine: eng, Recent: s.recent.Snapshot(), TopK: s.topk.Snapshot()}
	s.ingestMu.Unlock()
	payload, err := json.Marshal(snap)
	if err != nil {
		return 0, fmt.Errorf("cluster: snapshot marshal: %w", err)
	}
	return seq, s.st.WriteSnapshot(seq, payload)
}

// Close flushes a final snapshot (best-effort — the WAL alone already
// suffices for recovery) and closes the store. A non-durable shard has
// nothing to release.
func (s *Shard) Close() error {
	if s.st == nil {
		return nil
	}
	_, snapErr := s.Snapshot()
	if err := s.st.Close(); err != nil {
		return err
	}
	return snapErr
}

// knownSub rejects a query naming a subscription the shard does not serve
// ("" addresses all of them).
func (s *Shard) knownSub(sub string) error {
	s.subMu.RLock()
	defer s.subMu.RUnlock()
	if sub != "" && !s.subIDs[sub] {
		return fmt.Errorf("%w: %q", ErrUnknownSub, sub)
	}
	return nil
}

// Instances returns recent detections (sub "" = all local subscriptions),
// newest first in the order a coordinator's gather merges them, so one
// shard and a cluster answer alike: the whole ring is sorted before the
// cut to limit, which emission order would otherwise decide.
func (s *Shard) Instances(sub string, limit int) (QueryResult, error) {
	if err := s.knownSub(sub); err != nil {
		return QueryResult{}, err
	}
	w, ok := s.eng.Watermark()
	ds := mergeRecent([][]*stream.Detection{s.recent.Recent(sub, 0)}, limit)
	return QueryResult{Watermark: w, Started: ok, Detections: ds}, nil
}

// TopK returns the best detections by flow. With sub "" the lists of every
// local subscription are merged — the per-shard half of the cluster's
// distributed top-k (MergeTopK).
func (s *Shard) TopK(sub string, k int) (QueryResult, error) {
	if err := s.knownSub(sub); err != nil {
		return QueryResult{}, err
	}
	w, ok := s.eng.Watermark()
	var ds []*stream.Detection
	if sub != "" {
		ds = s.topk.Top(sub)
		if k > 0 && k < len(ds) {
			ds = ds[:k]
		}
	} else {
		var lists [][]*stream.Detection
		for _, sub := range s.eng.Subscriptions() {
			lists = append(lists, s.topk.Top(sub.ID))
		}
		ds = MergeTopK(lists, k)
	}
	return QueryResult{Watermark: w, Started: ok, Detections: ds}, nil
}

// Stats is the shard's progress row under the given member id (LocalMember
// passes its own; a single daemon, which is nobody's member, passes "").
func (s *Shard) Stats(id string) MemberStats {
	return memberStatsOf(id, s.eng.Stats(), s.eng.Obs().Snapshot())
}

// memberStatsOf is the one stream.Stats → MemberStats mapping: a Shard
// feeds it its engine's stats, HTTPMember the same struct decoded off the
// member daemon's GET /stats.
func memberStatsOf(id string, st stream.Stats, metrics []obs.MetricSnapshot) MemberStats {
	out := MemberStats{
		ID:             id,
		Watermark:      st.Watermark,
		Started:        st.Started,
		Events:         st.EventsIngested,
		Retained:       st.EventsRetained,
		Detections:     st.Detections,
		PlanGroups:     st.PlanGroups,
		SnapshotBuilds: st.SnapshotBuilds,
		SnapshotReuse:  st.SnapshotReuse,
		MatchesShared:  st.MatchesShared,
		Metrics:        metrics,
		CostSeconds:    st.Cost.AttributedSeconds,
		CostRounds:     st.Cost.Rounds,
		GroupCosts:     st.Groups,
	}
	for _, s := range st.Subs {
		out.Subs = append(out.Subs, s.ID)
		if s.Cost != (stream.SubCost{}) {
			out.SubCosts = append(out.SubCosts, SubCostInfo{ID: s.ID, Shape: s.Shape, Cost: s.Cost})
		}
	}
	return out
}
