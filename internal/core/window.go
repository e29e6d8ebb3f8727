package core

import (
	"flowmotif/internal/motif"
	"flowmotif/internal/temporal"
)

// EnumerateRange is Enumerate restricted to instances anchored within the
// inclusive timestamp range [anchorLo, anchorHi]: it streams exactly the
// subset of Enumerate's maximal instances whose Start (the timestamp of the
// instance's first event, which anchors its δ-window) lies in the range.
//
// This is the incremental entry point of the streaming subsystem
// (internal/stream). Because an instance anchored at ts is confined to
// [ts, ts+δ], and the window-skip maximality rule only consults same-arc
// anchors within δ before ts, EnumerateRange over a graph holding only the
// events of [anchorLo-δ, anchorHi+δ] produces the same instances as over
// the full graph — so a stream engine can finalize one watermark band at a
// time against a bounded retention window. See DESIGN.md §7.
func EnumerateRange(g *temporal.Graph, mo *motif.Motif, p Params, anchorLo, anchorHi int64, visit Visitor) (EnumStats, error) {
	if err := p.validate(); err != nil {
		return EnumStats{}, err
	}
	if anchorLo > anchorHi {
		return EnumStats{}, nil
	}
	pass := func(f float64) bool { return f >= p.Phi }
	if p.Workers > 1 {
		return enumerateParallel(g, mo, p, pass, anchorLo, anchorHi, plain(visit))
	}
	return enumerate(g, walkSource(g, mo, p.Delta, anchorLo, anchorHi), mo, p, pass, anchorLo, anchorHi, plain(visit)), nil
}

// CollectRange materializes the instances EnumerateRange streams.
func CollectRange(g *temporal.Graph, mo *motif.Motif, p Params, anchorLo, anchorHi int64) ([]*Instance, error) {
	var out []*Instance
	_, err := EnumerateRange(g, mo, p, anchorLo, anchorHi, func(in *Instance) bool {
		out = append(out, in)
		return true
	})
	return out, err
}
