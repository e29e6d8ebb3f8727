package main

import (
	"fmt"

	"flowmotif/internal/motif"
	"flowmotif/internal/stream"
)

// The three serving workloads (batch_paper is in batch.go). README.md
// records why each exists and what a change to each layer should and
// should not move on it; the sizes here are the sizing runs' outcome
// (README "Sizing").

// catalogSubs is one subscription per Figure-3 catalog shape.
func catalogSubs() []stream.Subscription {
	var subs []stream.Subscription
	for _, m := range motif.Catalog() {
		subs = append(subs, stream.Subscription{ID: m.Name(), Motif: m, Delta: 600, Phi: 3})
	}
	return subs
}

// streamNodes is the user count of every serving workload's stream.
const streamNodes = 2000

var servingWorkloads = []servingSpec{
	{
		// Dense stream, one shape: 1.5 events per time unit is about 900
		// events in a δ=600 window.
		name:    "stream_shared",
		perUnit: 1.5,
		subs: func() []stream.Subscription {
			tri := motif.MustPath(0, 1, 2, 0).Named("M(3,3)")
			var subs []stream.Subscription
			for _, d := range []int64{300, 600, 900} {
				for p := 0; p < 32; p++ {
					subs = append(subs, stream.Subscription{
						ID: fmt.Sprintf("tri-d%d-p%02d", d, p), Motif: tri, Delta: d, Phi: 1 + 0.5*float64(p),
					})
				}
			}
			return subs
		},
		deploy:        deployDaemon,
		events:        512 * batchSize,
		warmBatches:   64,
		replayBatches: 400,
	},
	{
		// A third of the density, ten shapes, no second consumer for any of
		// them.
		name:          "stream_catalog",
		perUnit:       0.5,
		subs:          catalogSubs,
		deploy:        deployDaemon,
		events:        256 * batchSize,
		warmBatches:   24,
		replayBatches: 200,
	},
	{
		// Sparse: the engines do less, the path to them does the rest.
		name:          "cluster_mixed",
		perUnit:       0.03,
		subs:          catalogSubs,
		deploy:        deployCluster,
		events:        768 * batchSize,
		warmBatches:   128,
		replayBatches: 1500,
	},
}
