package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"

	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// rendezvousOwner picks the member that owns a subscription under
// highest-random-weight (rendezvous) hashing: the member whose hash with
// the subscription id is largest. Minimal disruption follows directly:
// adding a member only moves the subscriptions it now wins, removing one
// only moves the subscriptions it owned. Ties (astronomically unlikely
// with 64-bit FNV-1a) break towards the lexicographically smallest member
// id so every coordinator computes the same placement. Returns "" when no
// members are given.
func rendezvousOwner(subID string, members []string) string {
	best := ""
	var bestScore uint64
	for _, m := range members {
		h := fnv.New64a()
		h.Write([]byte(subID))
		h.Write([]byte{0})
		h.Write([]byte(m))
		score := h.Sum64()
		if best == "" || score > bestScore || (score == bestScore && m < best) {
			best, bestScore = m, score
		}
	}
	return best
}

// Placement maps every key to its rendezvous owner over the given member
// set. Exported for operators and tests that want to predict moves before
// a membership change. Note the coordinator does not hash raw subscription
// ids: it hashes GroupKey(sub), so same-shape subscriptions co-locate; use
// PlacementOf to predict actual subscription placement.
func Placement(subIDs, members []string) map[string]string {
	out := make(map[string]string, len(subIDs))
	for _, id := range subIDs {
		out[id] = rendezvousOwner(id, members)
	}
	return out
}

// GroupKey returns the placement key of a subscription: its motif's
// canonical shape. Hashing the shape instead of the subscription id makes
// rendezvous placement group-aware — every subscription watching the same
// motif shape lands on the same member, where the engine's
// shared-evaluation planner (internal/stream, DESIGN.md §11) runs phase P1
// once for all of them. Membership changes and failover re-place by the
// same key, so group integrity survives add/drain/fail.
func GroupKey(sub stream.Subscription) string {
	return "shape:" + sub.Motif.ShapeKey()
}

// PlacementOf maps subscriptions to their rendezvous owners under the
// coordinator's group-aware key (see GroupKey), so operators can predict
// where subscriptions land and which co-locate. Ids resolve like the
// coordinator's: an empty ID defaults to the motif name, so a sub set the
// coordinator would reject as duplicate ids collapses to one entry here.
// A nil-motif subscription (also a coordinator construction error) falls
// back to hashing its id.
func PlacementOf(subs []stream.Subscription, members []string) map[string]string {
	out := make(map[string]string, len(subs))
	for _, sub := range subs {
		id, key := sub.ID, sub.ID
		if sub.Motif != nil {
			if id == "" {
				id = sub.Motif.Name()
			}
			key = GroupKey(sub)
		}
		out[id] = rendezvousOwner(key, members)
	}
	return out
}

// sortedKeys returns a map's keys in deterministic order: membership
// changes and failovers iterate subscriptions through it so every run
// applies moves identically.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// registerLocked adds a member at the log head (history reaches it through
// handoffs); the caller starts its replicator. The caller holds mu.
func (c *Coordinator) registerLocked(id string, m Member) *memberState {
	ms := &memberState{m: m, subs: map[string]bool{}, ackedSeq: c.log.head(),
		ackedW: math.MinInt64, done: make(chan struct{})}
	c.members[id] = ms
	return ms
}

// deregisterLocked removes a member, if registered, counting a down when
// it died: its replicator stops, it no longer gates log trimming or
// backpressure, and its subscriptions are unplaced until the placement
// pass re-places them. The caller holds mu.
func (c *Coordinator) deregisterLocked(id string, down bool) {
	ms, ok := c.members[id]
	if !ok {
		return
	}
	if down {
		c.downs++
	}
	delete(c.members, id)
	if ms.failed {
		c.failedCount--
	}
	ms.stopped = true
	for subID := range ms.subs {
		delete(c.owner, subID)
		c.unplaced[subID] = true
	}
	c.trimLogLocked()
	c.cond.Broadcast()
}

// placeLocked is the one placement pass. It repeats until no subscription
// is off its target: the rendezvous owner of its group key among the
// members other than leaving.
//
//   - On a live member, a subscription moves by live handoff: removed from
//     its owner, then installed on the target.
//   - With its member gone, it is regenerated from the history (flattened
//     once per pass), with the emitted bound just before its first event.
//   - A handoff call failing with ErrMemberDown deregisters that member on
//     the spot, as a down and not an error, and the pass goes on. A
//     handoff already taken off its source is installed on the next
//     target: the source itself when only the target died.
//   - A semantic rejection is returned and fails no member over. A
//     rejected removal leaves the subscription on its owner; a rejected
//     installation parks it unplaced. The pass then leaves it alone.
//
// Handoff calls are single-attempt (neither is idempotent under a lost
// ack; regeneration from history is safe whether or not a lost call was
// applied). A move counts when a subscription lands off the member it
// lived on, so a first placement counts none. The caller holds ingestMu
// with the pipeline drained; no member call is made under mu.
func (c *Coordinator) placeLocked(leaving string) error {
	type inFlight struct {
		h    Handoff
		from string // "" when regenerated
	}
	var errs []error
	var catchup []temporal.Event // shared read-only by every regeneration
	held, rejected := map[string]inFlight{}, map[string]bool{}
	for busy := true; busy; {
		busy = false
		for _, subID := range sortedKeys(c.subs) { // c.subs is fixed after New
			c.mu.Lock()
			to := rendezvousOwner(c.placeKey[subID], c.liveIDsLocked(leaving))
			from, owned := c.owner[subID]
			if to == "" || to == from || rejected[subID] {
				c.mu.Unlock()
				continue
			}
			busy = true
			f, ok := held[subID]
			fresh := !owned && !ok && !c.unplaced[subID] // never placed: New
			if !owned && !ok {
				if catchup == nil {
					catchup = c.log.catchup()
				}
				f.h = Handoff{Sub: SpecOf(c.subs[subID])}
				if len(catchup) > 0 {
					f.h.Primed, f.h.Emitted, f.h.Catchup = true, temporal.SatSub(catchup[0].T, 1), catchup
				}
			}
			src, dst := c.members[from], c.members[to]
			if owned {
				delete(src.subs, subID)
				delete(c.owner, subID)
			}
			c.unplaced[subID] = true // in flight
			c.mu.Unlock()
			var err error
			failed := from
			if owned {
				f.h, err = src.m.RemoveSubscription(subID)
				f.from = from
			}
			if err == nil {
				held[subID], failed = f, to
				err = dst.m.AddSubscription(f.h)
			}
			c.mu.Lock()
			switch {
			case errors.Is(err, ErrMemberDown):
				c.deregisterLocked(failed, true)
			case err != nil:
				rejected[subID] = true
				if failed == from { // a rejected removal: still on its owner
					src.subs[subID], c.owner[subID] = true, from
					delete(c.unplaced, subID)
				}
				errs = append(errs, fmt.Errorf("cluster: placing %q (%s -> %s): %w", subID, from, to, err))
			default:
				delete(held, subID)
				dst.subs[subID] = true
				c.owner[subID] = to
				delete(c.unplaced, subID)
				if !fresh && f.from != to {
					c.moves++
				}
			}
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.liveIDsLocked(leaving)) == 0 && len(c.subs) > 0 {
		errs = append(errs, fmt.Errorf("%w: %d subscriptions unplaced", ErrNoMembers, len(c.unplaced)))
	}
	return errors.Join(errs...)
}

// liveIDsLocked lists the members other than leaving, in id order. The
// caller holds mu.
func (c *Coordinator) liveIDsLocked(leaving string) []string {
	return slices.DeleteFunc(sortedKeys(c.members), func(id string) bool { return id == leaving })
}

// reapFailedLocked drains the pipeline, then fails over every member whose
// replicator gave up plus any named in ids: each is deregistered as a down
// and, if any was, the placement pass runs. Survivors are at the log head
// by then, so the history is complete and regeneration exact. A member's
// death is not an error; only placement problems reach the caller. The
// caller holds ingestMu.
func (c *Coordinator) reapFailedLocked(ids ...string) error {
	c.drainLocked()
	c.mu.Lock()
	downs := c.downs
	for _, id := range sortedKeys(c.members) {
		if c.members[id].failed || slices.Contains(ids, id) {
			c.deregisterLocked(id, true)
		}
	}
	dropped := c.downs > downs
	c.mu.Unlock()
	if !dropped {
		return nil
	}
	return c.placeLocked("")
}

// FailMember marks a member down now, without waiting for its replicator
// to give up, and fails it over: the survivors, drained to the log head,
// regenerate its subscriptions from the coordinator's history, so its
// already-reported detections are not lost.
func (c *Coordinator) FailMember(id string) error {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	c.mu.Lock()
	_, ok := c.members[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: unknown member %q", id)
	}
	return c.reapFailedLocked(id)
}

// AddMember registers a new member and runs the placement pass: the
// subscriptions it now wins move onto it by live handoff, and unplaced
// ones (left when every member was lost) are regenerated from history. A
// member that dies during its join is failed over, which returns what was
// handed to it to its source; that is not an error. Ingest is quiesced
// for the duration.
func (c *Coordinator) AddMember(m Member) error {
	// Resolve the ID once before taking any lock: Member is the RPC
	// surface, so for a remote member ID() may leave the process.
	id := m.ID()
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	// Reap errors (e.g. the last old member died leaving subscriptions
	// unplaced) are not fatal: the new member is about to adopt them.
	_ = c.reapFailedLocked()
	c.mu.Lock()
	if _, dup := c.members[id]; dup || id == "" {
		c.mu.Unlock()
		return fmt.Errorf("cluster: member id %q empty or already registered", id)
	}
	ms := c.registerLocked(id, m)
	c.mu.Unlock()
	go c.replicate(ms)
	return c.placeLocked("")
}

// RemoveMember drains a member gracefully: the placement pass hands each
// subscription it owns off live to its owner among the other members,
// then the member is deregistered (the caller keeps the Member object and
// may close it). A member that dies mid-drain is failed over instead, and
// that is not an error. The last member is never drained while
// subscriptions exist: that is refused, and if every other member dies
// mid-drain the subscriptions return to it.
func (c *Coordinator) RemoveMember(id string) error {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	// Quiesce: every member has applied the full log before handoffs move
	// live subscription state between them.
	if err := c.reapFailedLocked(); err != nil {
		return err
	}
	c.mu.Lock()
	_, ok := c.members[id]
	last := len(c.members) == 1 && len(c.subs) > 0
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: unknown member %q", id)
	}
	if last {
		return fmt.Errorf("cluster: cannot drain the last member (%d subscriptions placed)", len(c.subs))
	}
	err := c.placeLocked(id)
	if errors.Is(err, ErrNoMembers) {
		return errors.Join(err, c.placeLocked(""))
	}
	c.mu.Lock()
	c.deregisterLocked(id, false)
	c.mu.Unlock()
	return err
}
