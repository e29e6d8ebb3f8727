package stream

import (
	"fmt"

	"flowmotif/internal/temporal"
)

// SnapshotVersion is the current EngineSnapshot format version.
const SnapshotVersion = 1

// SubSnapshot is the persisted state of one subscription, including the
// (motif, δ, φ) identity so a restore into a differently configured engine
// is rejected instead of silently producing wrong detections.
type SubSnapshot struct {
	ID         string  `json:"id"`
	Motif      string  `json:"motif"` // spanning-path spec, e.g. "0-1-2-0"
	Delta      int64   `json:"delta"`
	Phi        float64 `json:"phi"`
	Emitted    int64   `json:"emitted"`
	Primed     bool    `json:"primed"`
	Detections int64   `json:"detections"`
	Bands      int64   `json:"bands"`
}

// EngineSnapshot is the complete serializable state of an Engine: the
// stream frontier, per-subscription finalization bounds, and the retained
// window log. Restoring it into a fresh engine with the same subscriptions
// and then replaying the events ingested after the snapshot reproduces the
// uninterrupted run exactly (the recovery protocol of internal/store and
// cmd/flowmotifd; see DESIGN.md §8).
type EngineSnapshot struct {
	Version    int                     `json:"version"`
	MinNextT   int64                   `json:"minNextT"`
	Batches    int64                   `json:"batches"`
	Detections int64                   `json:"detections"`
	Subs       []SubSnapshot           `json:"subs"`
	Log        temporal.WindowLogState `json:"log"`
}

// Snapshot captures the engine state. It serializes against in-flight
// Ingest/Flush calls (including their sink emission), so the snapshot never
// reflects a finalized band whose detections have not reached the sink. A
// fail-stopped engine refuses to snapshot: its log holds the partial batch
// of the failed append, and persisting that as the authoritative recovery
// state would launder the divergence into a healthy-looking restart.
func (e *Engine) Snapshot() (*EngineSnapshot, error) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.failedLocked(); err != nil {
		return nil, fmt.Errorf("stream: snapshot: %w", err)
	}
	snap := &EngineSnapshot{
		Version:    SnapshotVersion,
		MinNextT:   e.gate.Next(),
		Batches:    e.batches,
		Detections: e.detections,
		Log:        e.log.State(),
	}
	for _, s := range e.subs {
		snap.Subs = append(snap.Subs, SubSnapshot{
			ID:         s.sub.ID,
			Motif:      s.sub.Motif.String(),
			Delta:      s.sub.Delta,
			Phi:        s.sub.Phi,
			Emitted:    s.emitted,
			Primed:     s.primed,
			Detections: s.detections,
			Bands:      s.bands,
		})
	}
	return snap, nil
}

// Restore loads a snapshot into the engine. The engine must be fresh (no
// event ever ingested) and configured with exactly the snapshot's
// subscriptions — same IDs, motifs, δ and φ. Validation is all-or-nothing:
// on error the engine is unchanged and still usable (e.g. for a full
// write-ahead-log replay from scratch).
func (e *Engine) Restore(snap *EngineSnapshot) error {
	if snap == nil {
		return fmt.Errorf("stream: nil snapshot")
	}
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("stream: snapshot version %d not supported (want %d)", snap.Version, SnapshotVersion)
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.failedLocked(); err != nil {
		// A poisoned engine's in-memory state has diverged from its log;
		// loading a snapshot over it would mask the divergence while the
		// poison stays set. Replace the engine instead.
		return fmt.Errorf("stream: restore: %w", err)
	}
	if e.batches != 0 || e.log.Appended() != 0 {
		return fmt.Errorf("stream: Restore requires a fresh engine (already ingested %d events)", e.log.Appended())
	}
	if len(snap.Subs) != len(e.subs) {
		return fmt.Errorf("stream: snapshot has %d subscriptions, engine has %d", len(snap.Subs), len(e.subs))
	}
	byID := make(map[string]*SubSnapshot, len(snap.Subs))
	for i := range snap.Subs {
		ss := &snap.Subs[i]
		if _, dup := byID[ss.ID]; dup {
			return fmt.Errorf("stream: snapshot has duplicate subscription id %q", ss.ID)
		}
		byID[ss.ID] = ss
	}
	for _, s := range e.subs {
		ss, ok := byID[s.sub.ID]
		if !ok {
			return fmt.Errorf("stream: snapshot is missing subscription %q", s.sub.ID)
		}
		if got, want := s.sub.Motif.String(), ss.Motif; got != want {
			return fmt.Errorf("stream: subscription %q motif mismatch: engine %s, snapshot %s", s.sub.ID, got, want)
		}
		if s.sub.Delta != ss.Delta || s.sub.Phi != ss.Phi {
			return fmt.Errorf("stream: subscription %q (δ=%d, φ=%g) does not match snapshot (δ=%d, φ=%g)",
				s.sub.ID, s.sub.Delta, s.sub.Phi, ss.Delta, ss.Phi)
		}
	}
	log, err := temporal.NewWindowLogFromState(snap.Log)
	if err != nil {
		return fmt.Errorf("stream: snapshot log: %w", err)
	}
	e.log = log
	e.gate = temporal.OpenGate()
	e.gate.Advance(snap.MinNextT)
	e.batches = snap.Batches
	e.detections = snap.Detections
	for _, s := range e.subs {
		ss := byID[s.sub.ID]
		s.emitted = ss.Emitted
		s.primed = ss.Primed
		s.detections = ss.Detections
		s.bands = ss.Bands
	}
	return nil
}
