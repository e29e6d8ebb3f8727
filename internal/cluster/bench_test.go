package cluster

import (
	"fmt"
	"sort"
	"testing"

	"flowmotif/internal/gen"
	"flowmotif/internal/motif"
	"flowmotif/internal/stream"
	"flowmotif/internal/temporal"
)

// benchStream builds the synthetic benchmark stream, time-ordered.
func benchStream(b *testing.B, events int) []temporal.Event {
	b.Helper()
	evs, err := gen.Bitcoin(gen.BitcoinConfig{
		Nodes:    2000,
		SeedTxns: events / 4,
		Duration: 500000,
		Seed:     2019,
	})
	if err != nil {
		b.Fatal(err)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	if len(evs) > events {
		evs = evs[:events]
	}
	return evs
}

// benchSubs is the benchmark workload: the full catalog at one (δ, φ).
func benchSubs() []stream.Subscription {
	var subs []stream.Subscription
	for _, mo := range motif.Catalog() {
		subs = append(subs, stream.Subscription{
			ID:    mo.Name() + "/bench",
			Motif: mo,
			Delta: 600,
			Phi:   2,
		})
	}
	return subs
}

// benchCluster builds an N-shard cluster over the full catalog and
// pre-ingests (and drains) the synthetic stream.
func benchCluster(b *testing.B, shards int, preload []temporal.Event, maxPending int) *Coordinator {
	b.Helper()
	members := make([]Member, shards)
	for i := range members {
		m, err := NewLocalMember(fmt.Sprintf("m%d", i), LocalOptions{})
		if err != nil {
			b.Fatal(err)
		}
		members[i] = m
	}
	c, err := New(Config{
		Members:      members,
		Subs:         benchSubs(),
		HistoryLimit: 1 << 14,
		MaxPending:   maxPending,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	for i := 0; i < len(preload); i += 512 {
		end := i + 512
		if end > len(preload) {
			end = len(preload)
		}
		if _, err := c.Ingest(preload[i:end]); err != nil {
			b.Fatal(err)
		}
	}
	if len(preload) > 0 {
		if err := c.Drain(); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// benchFeed streams b.N events into the cluster in fixed batches, wrapping
// the synthetic stream by shifting timestamps so the time-order contract
// holds across laps. drainEvery > 0 inserts an out-of-timer drain barrier
// every that many batches (bounding replication-log memory while keeping
// the timed region pure ack path); drainEvery == 0 drains once, inside
// the timer.
func benchFeed(b *testing.B, c *Coordinator, evs []temporal.Event, drainEvery int) {
	b.Helper()
	const batch = 512
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	shift := int64(0)
	sinceDrain := 0
	maxT := evs[len(evs)-1].T + 1
	scratch := make([]temporal.Event, batch)
	for n := 0; n < b.N; n += batch {
		if i+batch > len(evs) {
			i = 0
			shift += maxT
		}
		copy(scratch, evs[i:i+batch])
		if shift > 0 {
			for j := range scratch {
				scratch[j].T += shift
			}
		}
		if _, err := c.Ingest(scratch); err != nil {
			b.Fatal(err)
		}
		i += batch
		if drainEvery > 0 {
			if sinceDrain++; sinceDrain >= drainEvery {
				sinceDrain = 0
				b.StopTimer()
				if err := c.Drain(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
	}
	if drainEvery == 0 {
		if err := c.Drain(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := c.Stats()
	b.ReportMetric(float64(st.Events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkClusterIngest measures client-visible ingest throughput (the
// rate at which Ingest calls acknowledge) on a 4-shard cluster over the
// full catalog — the figure the asynchronous replication pipeline exists
// to improve: the synchronous broadcast made every ack wait out the
// slowest member's apply. Members apply the log during out-of-timer
// drain barriers, so the timed region is the ack path under a bounded
// queue. See BenchmarkClusterIngestSustained for the end-to-end apply
// rate.
func BenchmarkClusterIngest(b *testing.B) {
	evs := benchStream(b, 1<<17)
	// Queue deep enough that the inter-drain burst (2048 batches) never
	// backpressures: the timed region measures log appends only.
	c := benchCluster(b, 4, nil, 4096)
	benchFeed(b, c, evs, 2048)
}

// BenchmarkClusterIngestSustained measures end-to-end pipeline throughput:
// the drain barrier runs inside the timer, so the figure is bounded by the
// slowest member's apply rate — what a stream longer than the queue depth
// sustains under backpressure.
func BenchmarkClusterIngestSustained(b *testing.B) {
	evs := benchStream(b, 1<<17)
	c := benchCluster(b, 4, nil, 0)
	benchFeed(b, c, evs, 0)
}

// BenchmarkScatterGatherTopK measures the global top-k gather (all shards,
// merged) on a warm 4-shard cluster.
func BenchmarkScatterGatherTopK(b *testing.B) {
	evs := benchStream(b, 1<<15)
	c := benchCluster(b, 4, evs, 0)
	b.ReportAllocs()
	b.ResetTimer()
	var sink []*stream.Detection
	for n := 0; n < b.N; n++ {
		ds, _, err := c.TopK("", 10)
		if err != nil {
			b.Fatal(err)
		}
		sink = ds
	}
	_ = sink
}
