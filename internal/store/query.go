package store

import (
	"fmt"
	"math"
	"sync/atomic"

	"flowmotif/internal/core"
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// DefaultChunkEvents is the default per-band buffering granularity of the
// out-of-core query path.
const DefaultChunkEvents = 1 << 16

// QueryOptions parameterizes an out-of-core query.
type QueryOptions struct {
	// ChunkEvents is how many events are streamed off the WAL before the
	// closed anchor band is enumerated and the expired buffer prefix
	// evicted. Peak memory is O(ChunkEvents + events per δ-window); larger
	// chunks amortize graph construction, smaller ones bound memory
	// (default DefaultChunkEvents).
	ChunkEvents int
}

// Visitor receives each maximal instance together with the band graph its
// Arcs/Spans fields index into (instances found out-of-core cannot refer
// to one global graph — there is none). Both are only valid during the
// callback unless retained; return false to stop the query. With
// Params.Workers > 1 the visitor runs concurrently and must be safe for
// concurrent use.
type Visitor func(g *temporal.Graph, in *core.Instance) bool

// Query enumerates every maximal instance of mo under p across the whole
// recorded event history, without materializing the full graph: segments
// stream through core.EnumerateRange in δ-overlapping chunks, exactly as
// the online engine finalizes watermark bands, so the result equals batch
// FindInstances over the full log (see the oracle in query_test.go and the
// root-level store_test.go). visit may be nil to count only.
func (s *Store) Query(mo *motif.Motif, p core.Params, q QueryOptions, visit Visitor) (core.EnumStats, error) {
	return s.QueryRange(mo, p, q, math.MinInt64, math.MaxInt64, visit)
}

// QueryRange is Query restricted to windows anchored within
// [anchorLo, anchorHi]. The sealed segments' [minT, maxT] index headers
// let the scan skip segments that cannot contribute: instance maximality
// still accounts for events up to δ before anchorLo, matching
// core.EnumerateRange semantics.
func (s *Store) QueryRange(mo *motif.Motif, p core.Params, q QueryOptions, anchorLo, anchorHi int64, visit Visitor) (core.EnumStats, error) {
	var total core.EnumStats
	if mo == nil {
		return total, fmt.Errorf("store: nil motif")
	}
	chunk := q.ChunkEvents
	if chunk <= 0 {
		chunk = DefaultChunkEvents
	}
	if anchorLo > anchorHi {
		return total, nil
	}
	// Events below loT cannot influence any in-range window, not even via
	// the backward-extension (maximality) rule; events above hiT cannot
	// belong to any in-range window.
	loT := temporal.SatSub(anchorLo, p.Delta)
	hiT := temporal.SatAdd(anchorHi, p.Delta)

	segs, err := s.snapshotSegments()
	if err != nil {
		return total, err
	}

	buf := temporal.NewWindowLog()
	emitted := int64(math.MinInt64) // anchors <= emitted are done
	primed := false
	pending := 0
	// Atomic because with p.Workers > 1 EnumerateRange invokes the band
	// visitor from concurrent worker goroutines.
	var stopped atomic.Bool // visitor returned false: stop after this band

	flushBand := func(hi int64) error {
		if hi > anchorHi {
			hi = anchorHi
		}
		if !primed || hi <= emitted {
			return nil
		}
		lo := temporal.SatAdd(emitted, 1)
		g, err := buf.BuildGraph(temporal.SatSub(lo, p.Delta), temporal.SatAdd(hi, p.Delta))
		if err != nil {
			return fmt.Errorf("store: band graph: %w", err)
		}
		var bandVisit core.Visitor
		if visit != nil {
			bandVisit = func(in *core.Instance) bool {
				if !visit(g, in) {
					stopped.Store(true)
					return false
				}
				return true
			}
		}
		st, err := core.EnumerateRange(g, mo, p, lo, hi, bandVisit)
		addStats(&total, &st)
		if err != nil {
			return err
		}
		emitted = hi
		buf.EvictBefore(temporal.SatSub(temporal.SatAdd(hi, 1), p.Delta))
		pending = 0
		return nil
	}

	var scanErr error
	for i := range segs {
		si := &segs[i]
		if si.count == 0 || si.maxT < loT {
			continue // the segment index proves it cannot contribute
		}
		done := false
		_, err := scanSegment(si, 0, func(_ int64, ev temporal.Event) bool {
			if ev.T > hiT {
				done = true
				return false
			}
			if ev.T < loT {
				return true
			}
			// Records read back from disk feed this log without a gate.
			err := temporal.CheckEvent(ev)
			if err == nil {
				err = buf.Append(ev)
			}
			if err != nil {
				scanErr = fmt.Errorf("store: query scan: %w", err)
				return false
			}
			if !primed {
				emitted = max(temporal.SatSub(ev.T, 1), temporal.SatSub(anchorLo, 1))
				primed = true
			}
			pending++
			if pending >= chunk {
				// The watermark ev.T closes every window anchored at or
				// before ev.T-δ-1 (no later event can land inside it).
				if err := flushBand(temporal.SatSub(ev.T, p.Delta+1)); err != nil {
					scanErr = err
					return false
				}
				if stopped.Load() {
					done = true
					return false
				}
			}
			return true
		})
		if scanErr != nil {
			return total, scanErr
		}
		if err != nil {
			return total, err
		}
		if done {
			break
		}
	}
	// End of input: every remaining window is closed.
	if w, ok := buf.Watermark(); ok && !stopped.Load() {
		if err := flushBand(w); err != nil {
			return total, err
		}
	}
	return total, nil
}

func addStats(dst, src *core.EnumStats) {
	dst.Matches += src.Matches
	dst.Anchors += src.Anchors
	dst.WindowsProcessed += src.WindowsProcessed
	dst.WindowsSkipped += src.WindowsSkipped
	dst.SplitsTried += src.SplitsTried
	dst.PhiPruned += src.PhiPruned
	dst.AvailPruned += src.AvailPruned
	dst.Instances += src.Instances
}
