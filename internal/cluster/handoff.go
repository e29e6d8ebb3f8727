package cluster

import (
	"flowmotif/internal/stream"
)

// AddSubscription applies a subscription handoff onto the shard's engine
// and query sinks: the moved sink state is injected first (so catch-up
// detections the engine regenerates land after — newer than — the moved
// history), then the subscription itself with its catch-up events and
// finalization bound. On engine rejection the injected sink state is
// rolled back, leaving the shard unchanged. An empty spec id defaults to
// the motif name.
func (s *Shard) AddSubscription(h Handoff) error {
	sub, err := h.Sub.Subscription()
	if err != nil {
		return err
	}
	if sub.ID == "" {
		sub.ID = sub.Motif.Name()
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	s.recent.Inject(h.Recent)
	s.topk.Inject(h.Top)
	err = s.eng.AddSubscription(sub, stream.AddOptions{
		Catchup: h.Catchup,
		Emitted: h.Emitted,
		Primed:  h.Primed,
	})
	if err != nil {
		s.recent.RemoveSub(sub.ID)
		s.topk.RemoveSub(sub.ID)
		return err
	}
	s.subMu.Lock()
	s.subIDs[sub.ID] = true
	s.subMu.Unlock()
	return nil
}

// RemoveSubscription removes a subscription from the shard's engine and
// query sinks and packages everything a receiving shard needs to resume
// it: the finalization bound, the retained events it still needed, and its
// sink contents.
func (s *Shard) RemoveSubscription(id string) (Handoff, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	rem, err := s.eng.RemoveSubscription(id)
	if err != nil {
		return Handoff{}, err
	}
	s.subMu.Lock()
	delete(s.subIDs, id)
	s.subMu.Unlock()
	return Handoff{
		Sub:     SpecOf(rem.Sub),
		Emitted: rem.Emitted,
		Primed:  rem.Primed,
		Catchup: rem.Events,
		Recent:  s.recent.RemoveSub(id),
		Top:     s.topk.RemoveSub(id),
	}, nil
}
