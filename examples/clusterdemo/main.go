// Clusterdemo runs a 3-shard motif-serving cluster in one process: a
// coordinator partitions a catalog of motif subscriptions across three
// member engines by rendezvous hashing, broadcasts a synthetic
// bitcoin-like transaction stream to all of them, and serves scatter-
// gather queries. Mid-stream it scales out to a fourth member (live
// subscription handoff), then kills a member outright and lets failover
// re-place its subscriptions, regenerated from the history in the
// coordinator's log — after which the cluster still serves the complete
// instance set, as the final global top-k shows.
package main

import (
	"fmt"
	"log"
	"sort"

	"flowmotif"
)

func main() {
	events, err := flowmotif.GenerateBitcoin(flowmotif.BitcoinConfig{
		Nodes:    800,
		SeedTxns: 3000,
		Duration: 3 * 24 * 3600,
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].T < events[j].T })

	// A sweep-style workload: several motifs under several (δ, φ) settings
	// — the many-subscription regime a cluster is for.
	var subs []flowmotif.StreamSubscription
	for _, name := range []string{"M(3,3)", "M(4,3)", "M(4,4)A", "M(5,4)", "chain3"} {
		mo, err := flowmotif.ParseMotif(name)
		if err != nil {
			log.Fatal(err)
		}
		for _, delta := range []int64{900, 1800, 7200} {
			subs = append(subs, flowmotif.StreamSubscription{
				ID:    fmt.Sprintf("%s/δ%d", name, delta),
				Motif: mo,
				Delta: delta,
				Phi:   2,
			})
		}
	}

	members := make([]flowmotif.ClusterMember, 3)
	locals := make([]*flowmotif.ClusterLocalMember, 3)
	for i := range members {
		m, err := flowmotif.NewClusterLocalMember(fmt.Sprintf("shard-%d", i), flowmotif.ClusterLocalOptions{})
		if err != nil {
			log.Fatal(err)
		}
		members[i] = m
		locals[i] = m
	}
	c, err := flowmotif.NewCluster(flowmotif.ClusterConfig{Members: members, Subs: subs})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fmt.Printf("cluster: 3 shards, %d subscriptions\n", len(subs))
	byOwner := map[string]int{}
	for _, owner := range c.Placement() {
		byOwner[owner]++
	}
	fmt.Printf("placement: %v\n\n", byOwner)

	feed := func(evs []flowmotif.Event, label string) {
		const batch = 512
		for i := 0; i < len(evs); i += batch {
			end := i + batch
			if end > len(evs) {
				end = len(evs)
			}
			if _, err := c.Ingest(evs[i:end]); err != nil {
				log.Fatal(err)
			}
		}
		st := c.Stats()
		fmt.Printf("%-28s events=%d moves=%d downs=%d\n", label, st.Events, st.Moves, st.Downs)
	}

	third := len(events) / 3
	feed(events[:third], "phase 1 (3 shards):")

	// Scale out: shard-3 joins and wins some subscriptions live.
	m3, err := flowmotif.NewClusterLocalMember("shard-3", flowmotif.ClusterLocalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.AddMember(m3); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nshard-3 joined; %d subscriptions moved onto it\n", c.Stats().Moves)
	feed(events[third:2*third], "phase 2 (4 shards):")

	// Kill shard-0: the next broadcast marks it down, and its
	// subscriptions are regenerated on the survivors from history.
	locals[0].SetDown(true)
	fmt.Printf("\nshard-0 killed\n")
	feed(events[2*third:], "phase 3 (failover):")
	// Ingest acks on append now (async replication pipeline); the drain
	// barrier waits for every survivor to apply the log and reaps the
	// killed shard.
	if err := c.Drain(); err != nil {
		log.Fatal(err)
	}
	for sub, owner := range c.Placement() {
		if owner == "shard-0" {
			log.Fatalf("subscription %s still on the dead shard", sub)
		}
	}

	if _, err := c.Flush(); err != nil {
		log.Fatal(err)
	}
	top, aligned, err := c.TopK("", 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nglobal top-%d by instance flow (aligned to watermark %d):\n", len(top), aligned.Watermark)
	for i, d := range top {
		fmt.Printf("  %2d. %-16s flow=%8.2f window=[%d,%d] nodes=%v\n",
			i+1, d.Sub, d.Flow, d.Start, d.End, d.Nodes)
	}
	st := c.Stats()
	fmt.Printf("\nfinal: %d events broadcast, %d subscription moves, %d member(s) failed over\n",
		st.Events, st.Moves, st.Downs)
	for _, m := range st.Members {
		fmt.Printf("  %-8s subs=%-2d watermark_lag=%-3d detections=%d\n",
			m.ID, len(m.Subs), m.Lag, m.Detections)
	}
}
