// Package motif defines network flow motifs (Kosyfaki et al., EDBT 2019,
// Definition 3.1): small directed graphs GM whose edges carry a total order
// 1..m describing how flow moves through the motif. The ordered edges form
// the motif's spanning path SPM, which is not necessarily simple (repeated
// vertices model cycles), but in which no ordered vertex pair repeats (EM is
// an edge set) and no edge is a self loop.
//
// A motif is represented canonically by its spanning-path vertex sequence,
// with vertices labelled 0,1,2,... in order of first appearance; e.g. the
// triangle M(3,3) is the sequence 0 1 2 0. The δ (duration) and φ (minimum
// flow) thresholds of Definition 3.1 are search parameters and live with the
// search code, not here.
package motif

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// MaxEdges bounds the motif size; the paper's catalog tops out at 5 edges
// and the algorithms are exponential in this number.
const MaxEdges = 16

// Motif is an immutable flow motif graph GM with its spanning path.
type Motif struct {
	path  []int // spanning-path vertex sequence, canonical labels
	numV  int
	name  string
	shape string // canonical spanning-path key, e.g. "0-1-2-0"
}

var (
	// ErrEmpty is returned for motifs with no edges.
	ErrEmpty = errors.New("motif: spanning path needs at least two vertices")
	// ErrSelfLoop is returned when consecutive path vertices coincide.
	ErrSelfLoop = errors.New("motif: self loops are not allowed")
	// ErrDuplicateEdge is returned when an ordered vertex pair repeats.
	ErrDuplicateEdge = errors.New("motif: ordered vertex pair repeats on the spanning path (EM is a set)")
	// ErrTooLarge is returned for motifs with more than MaxEdges edges.
	ErrTooLarge = fmt.Errorf("motif: more than %d edges", MaxEdges)
)

// FromPath builds a motif from a spanning-path vertex sequence. Vertex
// labels may be arbitrary non-negative ints; they are canonicalized to
// first-appearance order. The sequence 0 1 2 0 yields the triangle M(3,3).
func FromPath(seq ...int) (*Motif, error) {
	if len(seq) < 2 {
		return nil, ErrEmpty
	}
	if len(seq)-1 > MaxEdges {
		return nil, ErrTooLarge
	}
	canon := make([]int, len(seq))
	relabel := map[int]int{}
	for i, v := range seq {
		if v < 0 {
			return nil, fmt.Errorf("motif: negative vertex label %d", v)
		}
		c, ok := relabel[v]
		if !ok {
			c = len(relabel)
			relabel[v] = c
		}
		canon[i] = c
	}
	seen := map[[2]int]bool{}
	for i := 1; i < len(canon); i++ {
		u, v := canon[i-1], canon[i]
		if u == v {
			return nil, ErrSelfLoop
		}
		if seen[[2]int{u, v}] {
			return nil, ErrDuplicateEdge
		}
		seen[[2]int{u, v}] = true
	}
	m := &Motif{path: canon, numV: len(relabel)}
	m.name = fmt.Sprintf("M(%d,%d)", m.numV, m.NumEdges())
	parts := make([]string, len(canon))
	for i, v := range canon {
		parts[i] = strconv.Itoa(v)
	}
	m.shape = strings.Join(parts, "-")
	return m, nil
}

// MustPath is FromPath that panics on error; for tests and literals.
func MustPath(seq ...int) *Motif {
	m, err := FromPath(seq...)
	if err != nil {
		panic(err)
	}
	return m
}

// Named returns a copy of m carrying an explicit display name.
func (m *Motif) Named(name string) *Motif {
	nm := *m
	nm.name = name
	return &nm
}

// Chain returns the n-vertex chain motif 0→1→…→n-1 (n-1 edges).
func Chain(n int) (*Motif, error) {
	if n < 2 {
		return nil, ErrEmpty
	}
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i
	}
	return FromPath(seq...)
}

// Cycle returns the n-vertex cycle motif 0→1→…→n-1→0 (n edges).
func Cycle(n int) (*Motif, error) {
	if n < 3 {
		return nil, errors.New("motif: cycles need at least three vertices")
	}
	seq := make([]int, n+1)
	for i := 0; i < n; i++ {
		seq[i] = i
	}
	seq[n] = 0
	return FromPath(seq...)
}

// NumEdges returns m = |EM|.
func (m *Motif) NumEdges() int { return len(m.path) - 1 }

// NumVertices returns |VM|.
func (m *Motif) NumVertices() int { return m.numV }

// Path returns the spanning-path vertex sequence (length NumEdges+1). The
// returned slice is shared; callers must not modify it.
func (m *Motif) Path() []int { return m.path }

// EdgeSource returns the motif vertex at the tail of edge i (0-based).
func (m *Motif) EdgeSource(i int) int { return m.path[i] }

// EdgeTarget returns the motif vertex at the head of edge i (0-based).
func (m *Motif) EdgeTarget(i int) int { return m.path[i+1] }

// IsCyclic reports whether any vertex repeats along the spanning path.
func (m *Motif) IsCyclic() bool { return m.numV < len(m.path) }

// Name returns the display name (defaults to "M(v,e)").
func (m *Motif) Name() string { return m.name }

// ShapeKey returns the canonical spanning-path form of the motif, e.g.
// "0-1-2-0". Because FromPath relabels vertices to first-appearance order,
// two motifs carry equal keys iff they are the same flow-motif shape,
// whatever display names they were given. The streaming engine groups
// subscriptions into plan groups by it so phase P1 runs once per shape
// (internal/stream), and the cluster co-locates same-shape subscriptions
// onto one shard (internal/cluster); see DESIGN.md §11. The key round-trips
// through Parse.
func (m *Motif) ShapeKey() string { return m.shape }

// String returns the name and the spanning path, e.g. "M(3,3)[0-1-2-0]".
func (m *Motif) String() string {
	return m.name + "[" + m.shape + "]"
}

// Parse builds a motif from a textual description. Accepted forms:
//
//   - a spanning path "0-1-2-0" (separators '-', '>', ',' or spaces);
//   - "chainN" / "cycleN" shorthands, e.g. "chain4";
//   - a catalog name from Figure 3, e.g. "M(4,4)B" (case-insensitive).
func Parse(s string) (*Motif, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return nil, ErrEmpty
	}
	lower := strings.ToLower(t)
	if n, ok := strings.CutPrefix(lower, "chain"); ok {
		if k, err := strconv.Atoi(n); err == nil {
			return Chain(k)
		}
	}
	if n, ok := strings.CutPrefix(lower, "cycle"); ok {
		if k, err := strconv.Atoi(n); err == nil {
			return Cycle(k)
		}
	}
	for _, m := range Catalog() {
		if strings.EqualFold(m.Name(), t) {
			return m, nil
		}
	}
	fields := strings.FieldsFunc(t, func(r rune) bool {
		return r == '-' || r == '>' || r == ',' || r == ' '
	})
	if len(fields) < 2 {
		return nil, fmt.Errorf("motif: cannot parse %q", s)
	}
	seq := make([]int, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("motif: cannot parse %q: bad vertex %q", s, f)
		}
		seq[i] = v
	}
	return FromPath(seq...)
}

// Catalog returns fresh copies of the ten benchmark motifs of the paper's
// Figure 3 (see DESIGN.md §5 for the exact shapes chosen).
func Catalog() []*Motif {
	return []*Motif{
		MustPath(0, 1, 2).Named("M(3,2)"),
		MustPath(0, 1, 2, 0).Named("M(3,3)"),
		MustPath(0, 1, 2, 3).Named("M(4,3)"),
		MustPath(0, 1, 2, 3, 0).Named("M(4,4)A"),
		MustPath(0, 1, 2, 3, 1).Named("M(4,4)B"),
		MustPath(0, 1, 2, 0, 3).Named("M(4,4)C"),
		MustPath(0, 1, 2, 3, 4).Named("M(5,4)"),
		MustPath(0, 1, 2, 3, 4, 0).Named("M(5,5)A"),
		MustPath(0, 1, 2, 3, 4, 1).Named("M(5,5)B"),
		MustPath(0, 1, 2, 3, 0, 4).Named("M(5,5)C"),
	}
}
