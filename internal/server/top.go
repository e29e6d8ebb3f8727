package server

// GET /debug/top (DESIGN.md §14): the "who is expensive?" endpoint. It
// ranks subscriptions, plan groups and shards by the engine's attributed
// cost account — ?by=cost (attributed seconds, the default), ?by=rate
// (EWMA attributed seconds per wall second), ?by=emits (instances
// emitted), or ?by=lag (detection lag; ranks shards, with cost ordering
// for subscriptions and groups, which have no per-sub lag signal).
// ?limit=N bounds every section (default 10, capped). One renderer serves
// both roles over member rows (cluster.MemberInfo): a coordinator hands it
// every member's, a single daemon the one row its shard produces.
// Subscription rows carry their shard, the same (shape, δ) plan group
// living on several members folds into one row, shares are fractions of
// all attributed seconds, and a shards section ranks the members.

import (
	"errors"
	"fmt"
	"net/http"
	"sort"

	"flowmotif/internal/stream"
)

// maxTopLimit caps ?limit= for /debug/top responses.
const maxTopLimit = 1000

// topSub is one subscription row of /debug/top: the engine's cost account
// for it (Share re-based over every member's seconds) and where it lives.
type topSub struct {
	ID     string `json:"id"`
	Shape  string `json:"shape"`
	Member string `json:"member,omitempty"`
	stream.SubCost
}

// topGroup is one plan-group row: the engine's (shape, δ) account summed
// over the Members shards that serve the group (Share re-based likewise).
type topGroup struct {
	stream.GroupCostStats
	Members int `json:"members"`
}

// topShard is one member row of /debug/top.
type topShard struct {
	ID             string  `json:"id"`
	CostSeconds    float64 `json:"costSeconds"`
	Detections     int64   `json:"detections"`
	Subs           int     `json:"subs"`
	WatermarkLag   int64   `json:"watermarkLag"`
	ReplLagEntries int64   `json:"replLagEntries"`
	// LagP99 is the member's detection-lag p99 in seconds (0 when the
	// member shipped no lag histogram yet).
	LagP99 float64 `json:"lagP99"`
}

// topBy validates the ?by= ranking key.
func topBy(r *http.Request) (string, error) {
	by := r.URL.Query().Get("by")
	if by == "" {
		by = "cost"
	}
	switch by {
	case "cost", "rate", "emits", "lag":
		return by, nil
	}
	return "", fmt.Errorf("bad by parameter %q (want cost, rate, emits, or lag)", by)
}

// rank sorts rows by key descending, ties broken by less (so the ranking
// is deterministic), and clips them to limit.
func rank[T any](rows []T, limit int, key func(*T) float64, less func(a, b *T) bool) []T {
	sort.Slice(rows, func(i, j int) bool {
		if a, b := key(&rows[i]), key(&rows[j]); a != b {
			return a > b
		}
		return less(&rows[i], &rows[j])
	})
	if limit > 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}

// costKey picks the figure a subscription or group row ranks by (cost for
// lag, which has no per-subscription signal).
func costKey(by string, seconds, rate float64, emits int64) float64 {
	switch by {
	case "rate":
		return rate
	case "emits":
		return float64(emits)
	}
	return seconds
}

// handleTop renders /debug/top from the backend's member rows.
func (fd *frontDoor) handleTop(w http.ResponseWriter, r *http.Request) {
	by, err := topBy(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	limit, err := intParam(r, "limit", 10)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	limit = min(limit, maxTopLimit)
	rows := fd.be.members(requestSpan(r).Context())
	var seconds float64
	var rounds int64
	accounts := 0
	for _, m := range rows {
		seconds += m.CostSeconds
		rounds += m.CostRounds
		accounts += len(m.GroupCosts)
	}
	if seconds == 0 && rounds == 0 && accounts == 0 {
		writeErr(w, http.StatusNotFound, errors.New("cost attribution disabled or no rounds metered yet"))
		return
	}
	share := func(s float64) float64 {
		if seconds > 0 {
			return s / seconds
		}
		return 0
	}
	subs := []topSub{}
	type groupKey struct {
		shape string
		delta int64
	}
	merged := map[groupKey]*topGroup{}
	shards := make([]topShard, 0, len(rows))
	for _, m := range rows {
		for _, sc := range m.SubCosts {
			row := topSub{ID: sc.ID, Shape: sc.Shape, Member: m.ID, SubCost: sc.Cost}
			row.Share = share(row.Seconds)
			subs = append(subs, row)
		}
		for _, g := range m.GroupCosts {
			k := groupKey{g.Shape, g.Delta}
			t := merged[k]
			if t == nil {
				t = &topGroup{GroupCostStats: stream.GroupCostStats{Shape: g.Shape, Delta: g.Delta}}
				merged[k] = t
			}
			t.Members++
			t.Subs += g.Subs
			t.Seconds += g.Seconds
			t.SnapshotSeconds += g.SnapshotSeconds
			t.MatchSeconds += g.MatchSeconds
			t.FanoutSeconds += g.FanoutSeconds
			t.MatchesVisited += g.MatchesVisited
			t.Emits += g.Emits
			t.Rate += g.Rate
		}
		shard := topShard{
			ID: m.ID, CostSeconds: m.CostSeconds, Detections: m.Detections,
			Subs: len(m.Subs), WatermarkLag: m.Lag, ReplLagEntries: m.ReplLagEntries,
		}
		for _, snap := range m.Metrics {
			if snap.Name == "flowmotif_detection_lag_seconds" && snap.Hist != nil && snap.Hist.Count > 0 {
				shard.LagP99 = snap.Hist.Quantile(0.99)
			}
		}
		shards = append(shards, shard)
	}
	groups := make([]topGroup, 0, len(merged))
	for _, t := range merged {
		t.Share = share(t.Seconds)
		groups = append(groups, *t)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"by":                by,
		"limit":             limit,
		"attributedSeconds": seconds,
		"rounds":            rounds,
		"members":           len(rows),
		"subs": rank(subs, limit,
			func(s *topSub) float64 { return costKey(by, s.Seconds, s.Rate, s.Emits) },
			func(a, b *topSub) bool { return a.ID < b.ID }),
		"groups": rank(groups, limit,
			func(g *topGroup) float64 { return costKey(by, g.Seconds, g.Rate, g.Emits) },
			func(a, b *topGroup) bool {
				if a.Shape != b.Shape {
					return a.Shape < b.Shape
				}
				return a.Delta < b.Delta
			}),
		// Members rank by detection-lag p99 (then watermark lag) for
		// ?by=lag, by detections for emits, by attributed cost otherwise.
		"shards": rank(shards, limit,
			func(s *topShard) float64 {
				switch by {
				case "lag":
					return s.LagP99
				case "emits":
					return float64(s.Detections)
				}
				return s.CostSeconds
			},
			func(a, b *topShard) bool {
				if by == "lag" && a.WatermarkLag != b.WatermarkLag {
					return a.WatermarkLag > b.WatermarkLag
				}
				return a.ID < b.ID
			}),
	})
}
