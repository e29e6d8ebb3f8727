package cluster

import (
	"sort"

	"flowmotif/internal/stream"
)

// better is the total order of the distributed top-k merge: TopKSink's own
// order (stream.CompareRank), then subscription id and motif name, so the
// merged ranking is deterministic even across subscriptions whose
// detections tie on every numeric field. Within one subscription it
// refines TopKSink's order, so merging a member's already-truncated top-k
// lists is exact: any detection in the cluster-wide top k is necessarily
// in the top k of the member that owns its subscription.
func better(a, b *stream.Detection) bool {
	if c := stream.CompareRank(a, b); c != 0 {
		return c < 0
	}
	if a.Sub != b.Sub {
		return a.Sub < b.Sub
	}
	return a.Motif < b.Motif
}

// MergeTopK merges per-shard (or per-subscription) top lists into the
// global best k, best-first. k <= 0 keeps everything. Edge cases are the
// boring ones a merge must get right: ties at the threshold resolve by the
// deterministic total order above, k larger than the total yields all
// detections, and empty lists contribute nothing.
func MergeTopK(lists [][]*stream.Detection, k int) []*stream.Detection {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]*stream.Detection, 0, n)
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.SliceStable(out, func(i, j int) bool { return better(out[i], out[j]) })
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// newer orders recent-instance concatenation newest-first: by detection
// watermark, then anchor, then the top-k tie-breakers for determinism.
func newer(a, b *stream.Detection) bool {
	if a.DetectedAt != b.DetectedAt {
		return a.DetectedAt > b.DetectedAt
	}
	if a.Start != b.Start {
		return a.Start > b.Start
	}
	return better(a, b)
}

// mergeRecent concatenates per-shard recent-detection lists newest-first,
// truncated to limit (<= 0: all).
func mergeRecent(lists [][]*stream.Detection, limit int) []*stream.Detection {
	out := make([]*stream.Detection, 0)
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.SliceStable(out, func(i, j int) bool { return newer(out[i], out[j]) })
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

// Gather is the status of a scatter-gather answer: the watermark the
// detections are aligned to, whether any gathered shard has started (a
// watermark of 0 with Started false is "no data yet", distinguishable
// from an empty-but-started stream), and whether the answer may be
// incomplete (shards dropped from the gather, subscriptions unplaced, or
// a member awaiting failover).
type Gather struct {
	Watermark int64 `json:"watermark"`
	Started   bool  `json:"started"`
	Degraded  bool  `json:"degraded"`
}

// alignWatermark implements scatter-gather watermark alignment: shards
// answer queries without quiescing ingest, so a gather can observe shard A
// past replicated batch n while shard B is still at n−1. Detections
// finalized beyond the slowest started shard's watermark are held back —
// they would come and go between refreshes depending on which shards had
// applied the newest batch. Returns the aligned watermark (the minimum
// over started shards), whether any gathered shard has started — without
// it, an aligned watermark of 0 with empty lists from a cluster that has
// seen no events would be indistinguishable from an empty-but-healthy
// one — and the filtered lists.
func alignWatermark(results []QueryResult) (int64, bool, [][]*stream.Detection) {
	alignedW := int64(0)
	any := false
	for _, r := range results {
		if !r.Started {
			continue
		}
		if !any || r.Watermark < alignedW {
			alignedW = r.Watermark
			any = true
		}
	}
	lists := make([][]*stream.Detection, 0, len(results))
	for _, r := range results {
		if !any {
			lists = append(lists, nil)
			continue
		}
		kept := r.Detections
		for _, d := range r.Detections {
			if d.DetectedAt > alignedW {
				// Copy-on-write: most gathers have nothing to drop.
				kept = nil
				for _, dd := range r.Detections {
					if dd.DetectedAt <= alignedW {
						kept = append(kept, dd)
					}
				}
				break
			}
		}
		lists = append(lists, kept)
	}
	return alignedW, any, lists
}
