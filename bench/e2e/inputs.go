package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"flowmotif/internal/gen"
	"flowmotif/internal/temporal"
)

// The inputs are internal/gen's stand-ins for the paper's datasets,
// unchanged: Zipf counterparty popularity, habitual partners, Pareto
// amounts and forwarding cascades (gen.Bitcoin); Pareto zone popularity,
// a gravity destination model, rush hours and transfer chains
// (gen.Passenger).
//
// A dataset is one fixed draw of its generator, as the paper's datasets
// are fixed and as internal/harness fixes them (the same seeds). The
// hubs a draw happens to make decide how much work an event is — between
// draws the same configuration differs by tens of percent (README
// "Inputs") — so a benchmark that drew a new dataset per run could not
// tell a regression from a draw. --seed varies what a replay of a fixed
// dataset can vary without changing its statistics: how the nodes are
// labelled and at which batch of the dataset the run starts.
const (
	bitcoinDataset   = 20140201
	passengerDataset = 20180101
)

// eventsPerTxn is what gen.Bitcoin makes of one seed transaction under
// its default forwarding probability and depth, cascade included, on
// average; the generator is asked for a little more than a stream needs
// and the tail is cut.
const eventsPerTxn = 2.3

// quantize rounds a flow down to a multiple of 1/64 (at least 1/64), so
// that every sum of flows is exact in float64: an edge-set's flow then
// compares with φ the same way whatever graph and prefix-sum base it is
// computed over, which the reference check relies on.
func quantize(f float64) float64 {
	return math.Max(math.Floor(f*64), 1) / 64
}

// finish puts generated events into the form every workload takes them
// in: time order, exact flows, nodes relabelled from the run's seed.
func finish(rng *rand.Rand, evs []temporal.Event, nodes int) {
	slices.SortStableFunc(evs, func(a, b temporal.Event) int {
		switch {
		case a.T < b.T:
			return -1
		case a.T > b.T:
			return 1
		}
		return 0
	})
	label := rng.Perm(nodes)
	for i := range evs {
		e := &evs[i]
		e.From, e.To = temporal.NodeID(label[e.From]), temporal.NodeID(label[e.To])
		e.F = quantize(e.F)
	}
}

// bitcoinStream is the bitcoin-like dataset as a stream: exactly events
// events in time order at about perUnit events per time unit.
func bitcoinStream(rng *rand.Rand, nodes, events int, perUnit float64, dataset int64) ([]temporal.Event, error) {
	txns := int(float64(events)/eventsPerTxn*1.05) + 16
	evs, err := gen.Bitcoin(gen.BitcoinConfig{
		Nodes: nodes, SeedTxns: txns,
		Duration: int64(float64(txns) * eventsPerTxn / perUnit),
		Seed:     dataset,
	})
	if err != nil {
		return nil, err
	}
	if len(evs) < events {
		return nil, fmt.Errorf("gen.Bitcoin made %d events of the %d asked for", len(evs), events)
	}
	finish(rng, evs, nodes)
	return evs[:events], nil
}
