package server

// GET /debug/top (DESIGN.md §14): the "who is expensive?" endpoint. It
// ranks subscriptions, plan groups, and (on a coordinator) shards by the
// engine's attributed cost account — ?by=cost (attributed seconds, the
// default), ?by=rate (EWMA attributed seconds per wall second), ?by=emits
// (instances emitted), or ?by=lag (detection lag; ranks shards, with cost
// ordering for subscriptions and groups, which have no per-sub lag
// signal). ?limit=N bounds every section (default 10, capped). The
// coordinator answer is member-stitched like /debug/traces: subscription
// rows carry their shard, plan groups merge across shards (the same
// (shape, δ) group living on several members folds into one cluster-wide
// row), and a shards section ranks the members themselves.

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"flowmotif/internal/obs"
)

// maxTopLimit caps ?limit= for /debug/top responses.
const maxTopLimit = 1000

// topSub is one subscription row of /debug/top.
type topSub struct {
	ID      string  `json:"id"`
	Shape   string  `json:"shape"`
	Member  string  `json:"member,omitempty"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
	Rate    float64 `json:"rate"`
	Emits   int64   `json:"emits"`
}

// topGroup is one plan-group row; on a coordinator it is the cluster-wide
// merge of every shard's (shape, δ) account and Members counts the shards
// contributing.
type topGroup struct {
	Shape           string  `json:"shape"`
	Delta           int64   `json:"delta"`
	Subs            int     `json:"subs"`
	Members         int     `json:"members,omitempty"`
	Seconds         float64 `json:"seconds"`
	SnapshotSeconds float64 `json:"snapshotSeconds"`
	MatchSeconds    float64 `json:"matchSeconds"`
	FanoutSeconds   float64 `json:"fanoutSeconds"`
	MatchesVisited  int64   `json:"matchesVisited"`
	Emits           int64   `json:"emits"`
	Rate            float64 `json:"rate"`
}

// topShard is one member row of a coordinator's /debug/top.
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

func topLimit(r *http.Request) (int, error) {
	limit, err := intParam(r, "limit", 10)
	if err != nil {
		return 0, err
	}
	if limit > maxTopLimit {
		limit = maxTopLimit
	}
	return limit, nil
}

// sortSubs orders subscription rows by the ranking key (cost for lag,
// which has no per-subscription signal), ID-tiebroken for determinism.
func sortSubs(subs []topSub, by string) {
	sort.Slice(subs, func(i, j int) bool {
		a, b := subs[i], subs[j]
		var av, bv float64
		switch by {
		case "rate":
			av, bv = a.Rate, b.Rate
		case "emits":
			av, bv = float64(a.Emits), float64(b.Emits)
		default: // cost, lag
			av, bv = a.Seconds, b.Seconds
		}
		if av != bv {
			return av > bv
		}
		return a.ID < b.ID
	})
}

func sortGroups(groups []topGroup, by string) {
	sort.Slice(groups, func(i, j int) bool {
		a, b := groups[i], groups[j]
		var av, bv float64
		switch by {
		case "rate":
			av, bv = a.Rate, b.Rate
		case "emits":
			av, bv = float64(a.Emits), float64(b.Emits)
		default:
			av, bv = a.Seconds, b.Seconds
		}
		if av != bv {
			return av > bv
		}
		if a.Shape != b.Shape {
			return a.Shape < b.Shape
		}
		return a.Delta < b.Delta
	})
}

func clip[T any](rows []T, limit int) []T {
	if limit > 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}

// handleTop serves a single engine's /debug/top from its Stats cost
// section.
func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errGetRequired)
		return
	}
	by, err := topBy(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	limit, err := topLimit(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st := s.Engine().Stats()
	if st.Cost.Rounds == 0 && st.Cost.AttributedSeconds == 0 && len(st.Groups) == 0 {
		writeErr(w, http.StatusNotFound, errors.New("cost attribution disabled or no rounds metered yet"))
		return
	}
	subs := make([]topSub, 0, len(st.Subs))
	for _, sub := range st.Subs {
		subs = append(subs, topSub{
			ID: sub.ID, Shape: sub.Shape,
			Seconds: sub.Cost.Seconds, Share: sub.Cost.Share,
			Rate: sub.Cost.Rate, Emits: sub.Cost.Emits,
		})
	}
	groups := make([]topGroup, 0, len(st.Groups))
	for _, g := range st.Groups {
		groups = append(groups, topGroup{
			Shape: g.Shape, Delta: g.Delta, Subs: g.Subs,
			Seconds: g.Seconds, SnapshotSeconds: g.SnapshotSeconds,
			MatchSeconds: g.MatchSeconds, FanoutSeconds: g.FanoutSeconds,
			MatchesVisited: g.MatchesVisited, Emits: g.Emits, Rate: g.Rate,
		})
	}
	sortSubs(subs, by)
	sortGroups(groups, by)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"by":                by,
		"limit":             limit,
		"attributedSeconds": st.Cost.AttributedSeconds,
		"rounds":            st.Cost.Rounds,
		"subs":              clip(subs, limit),
		"groups":            clip(groups, limit),
	})
}

// handleTop serves the coordinator's member-stitched /debug/top: per-sub
// rows tagged with their shard, plan groups merged cluster-wide through
// obs.TopAccum, and a shards section.
func (cs *Coordinator) handleTop(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errGetRequired)
		return
	}
	by, err := topBy(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	limit, err := topLimit(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st := cs.c.StatsTraced(requestSpan(r).Context())
	var clusterSeconds float64
	for _, m := range st.Members {
		clusterSeconds += m.CostSeconds
	}
	var subs []topSub
	acc := obs.NewTopAccum()
	groupMeta := map[string]*topGroup{}
	shards := make([]topShard, 0, len(st.Members))
	for _, m := range st.Members {
		for _, sc := range m.SubCosts {
			row := topSub{
				ID: sc.ID, Shape: sc.Shape, Member: m.ID,
				Seconds: sc.Cost.Seconds, Rate: sc.Cost.Rate, Emits: sc.Cost.Emits,
			}
			if clusterSeconds > 0 {
				// Share is re-based cluster-wide: the fraction of ALL
				// attributed engine seconds, not of one member's.
				row.Share = sc.Cost.Seconds / clusterSeconds
			}
			subs = append(subs, row)
		}
		for _, g := range m.GroupCosts {
			key := g.Shape + "|" + strconv.FormatInt(g.Delta, 10)
			acc.Add(key, g.Seconds)
			acc.AddField(key, "snapshot", g.SnapshotSeconds)
			acc.AddField(key, "match", g.MatchSeconds)
			acc.AddField(key, "fanout", g.FanoutSeconds)
			acc.AddField(key, "matches", float64(g.MatchesVisited))
			acc.AddField(key, "emits", float64(g.Emits))
			acc.AddField(key, "rate", g.Rate)
			meta := groupMeta[key]
			if meta == nil {
				meta = &topGroup{Shape: g.Shape, Delta: g.Delta}
				groupMeta[key] = meta
			}
			meta.Subs += g.Subs
			meta.Members++
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
	groups := make([]topGroup, 0, len(groupMeta))
	for _, e := range acc.Top(0) {
		meta := groupMeta[e.Key]
		g := topGroup{
			Shape: meta.Shape, Delta: meta.Delta, Subs: meta.Subs, Members: meta.Members,
			Seconds:         e.Value,
			SnapshotSeconds: e.Fields["snapshot"],
			MatchSeconds:    e.Fields["match"],
			FanoutSeconds:   e.Fields["fanout"],
			MatchesVisited:  int64(e.Fields["matches"]),
			Emits:           int64(e.Fields["emits"]),
			Rate:            e.Fields["rate"],
		}
		groups = append(groups, g)
	}
	sortSubs(subs, by)
	sortGroups(groups, by)
	sortShards(shards, by)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"by":                by,
		"limit":             limit,
		"attributedSeconds": clusterSeconds,
		"members":           len(st.Members),
		"subs":              clip(subs, limit),
		"groups":            clip(groups, limit),
		"shards":            clip(shards, limit),
	})
}

// sortShards ranks members: by detection-lag p99 (then watermark lag) for
// ?by=lag, by attributed cost otherwise (emits ranks by detections).
func sortShards(shards []topShard, by string) {
	sort.Slice(shards, func(i, j int) bool {
		a, b := shards[i], shards[j]
		var av, bv float64
		switch by {
		case "lag":
			av, bv = a.LagP99, b.LagP99
			if av == bv {
				av, bv = float64(a.WatermarkLag), float64(b.WatermarkLag)
			}
		case "emits":
			av, bv = float64(a.Detections), float64(b.Detections)
		case "rate":
			av, bv = a.CostSeconds, b.CostSeconds
		default:
			av, bv = a.CostSeconds, b.CostSeconds
		}
		if av != bv {
			return av > bv
		}
		return a.ID < b.ID
	})
}
