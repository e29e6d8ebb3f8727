package motif

import (
	"strings"
	"testing"
)

func TestFromPathCanonicalization(t *testing.T) {
	m, err := FromPath(7, 3, 9, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Path()
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("canonical path = %v, want %v", got, want)
		}
	}
	if m.NumVertices() != 3 || m.NumEdges() != 3 {
		t.Errorf("sizes = (%d,%d), want (3,3)", m.NumVertices(), m.NumEdges())
	}
	if !m.IsCyclic() {
		t.Error("triangle not reported cyclic")
	}
	if m.Name() != "M(3,3)" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestFromPathErrors(t *testing.T) {
	if _, err := FromPath(); err != ErrEmpty {
		t.Errorf("empty: %v", err)
	}
	if _, err := FromPath(0); err != ErrEmpty {
		t.Errorf("single vertex: %v", err)
	}
	if _, err := FromPath(0, 0); err != ErrSelfLoop {
		t.Errorf("self loop: %v", err)
	}
	if _, err := FromPath(0, 1, 0, 1); err != ErrDuplicateEdge {
		t.Errorf("duplicate edge: %v", err)
	}
	if _, err := FromPath(0, -1); err == nil {
		t.Error("negative label accepted")
	}
	long := make([]int, MaxEdges+2)
	for i := range long {
		long[i] = i
	}
	if _, err := FromPath(long...); err != ErrTooLarge {
		t.Errorf("too large: %v", err)
	}
}

func TestPingPongTwoVertices(t *testing.T) {
	// 0→1→0 is legal: two distinct ordered pairs.
	m, err := FromPath(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumVertices() != 2 || m.NumEdges() != 2 || !m.IsCyclic() {
		t.Errorf("ping-pong = %v", m)
	}
}

func TestSingleEdgeMotif(t *testing.T) {
	m, err := FromPath(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumEdges() != 1 || m.NumVertices() != 2 || m.IsCyclic() {
		t.Errorf("M(2,1) = %v", m)
	}
	if m.EdgeSource(0) != 0 || m.EdgeTarget(0) != 1 {
		t.Error("edge endpoints wrong")
	}
}

func TestChainCycleConstructors(t *testing.T) {
	c, err := Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumVertices() != 4 || c.NumEdges() != 3 || c.IsCyclic() {
		t.Errorf("Chain(4) = %v", c)
	}
	cy, err := Cycle(3)
	if err != nil {
		t.Fatal(err)
	}
	if cy.NumVertices() != 3 || cy.NumEdges() != 3 || !cy.IsCyclic() {
		t.Errorf("Cycle(3) = %v", cy)
	}
	if _, err := Chain(1); err == nil {
		t.Error("Chain(1) accepted")
	}
	if _, err := Cycle(2); err == nil {
		t.Error("Cycle(2) accepted")
	}
}

func TestCatalogShapes(t *testing.T) {
	cat := Catalog()
	if len(cat) != 10 {
		t.Fatalf("catalog has %d motifs, want 10", len(cat))
	}
	wantSizes := map[string][2]int{
		"M(3,2)": {3, 2}, "M(3,3)": {3, 3}, "M(4,3)": {4, 3},
		"M(4,4)A": {4, 4}, "M(4,4)B": {4, 4}, "M(4,4)C": {4, 4},
		"M(5,4)": {5, 4}, "M(5,5)A": {5, 5}, "M(5,5)B": {5, 5}, "M(5,5)C": {5, 5},
	}
	cyclic := map[string]bool{
		"M(3,3)": true, "M(4,4)A": true, "M(4,4)B": true, "M(4,4)C": true,
		"M(5,5)A": true, "M(5,5)B": true, "M(5,5)C": true,
	}
	seen := map[string]bool{}
	for _, m := range cat {
		if seen[m.Name()] {
			t.Errorf("duplicate catalog name %s", m.Name())
		}
		seen[m.Name()] = true
		sz, ok := wantSizes[m.Name()]
		if !ok {
			t.Errorf("unexpected motif %s", m.Name())
			continue
		}
		if m.NumVertices() != sz[0] || m.NumEdges() != sz[1] {
			t.Errorf("%s sizes = (%d,%d), want %v", m.Name(), m.NumVertices(), m.NumEdges(), sz)
		}
		if m.IsCyclic() != cyclic[m.Name()] {
			t.Errorf("%s cyclic = %v", m.Name(), m.IsCyclic())
		}
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		path []int
	}{
		{"0-1-2-0", []int{0, 1, 2, 0}},
		{"0>1>2", []int{0, 1, 2}},
		{"0,1,2,3,1", []int{0, 1, 2, 3, 1}},
		{"0 1 2", []int{0, 1, 2}},
		{"chain5", []int{0, 1, 2, 3, 4}},
		{"cycle4", []int{0, 1, 2, 3, 0}},
		{"M(3,3)", []int{0, 1, 2, 0}},
		{"m(5,5)c", []int{0, 1, 2, 3, 0, 4}},
		{"m(4,4)b", []int{0, 1, 2, 3, 1}},
	}
	for _, c := range cases {
		m, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		p := m.Path()
		if len(p) != len(c.path) {
			t.Errorf("Parse(%q) path = %v, want %v", c.in, p, c.path)
			continue
		}
		for i := range p {
			if p[i] != c.path[i] {
				t.Errorf("Parse(%q) path = %v, want %v", c.in, p, c.path)
				break
			}
		}
	}
	if m, err := Parse("m(4,4)b"); err != nil || m.Name() != "M(4,4)B" {
		t.Errorf("Parse(%q) = %v, %v; want the catalog's M(4,4)B", "m(4,4)b", m, err)
	}
	for _, bad := range []string{"", "hello", "0-x-2", "0", "chainx", "0-0", "M(9,9)"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestStringAndNamed(t *testing.T) {
	m := MustPath(0, 1, 2, 0)
	if s := m.String(); !strings.Contains(s, "0-1-2-0") || !strings.Contains(s, "M(3,3)") {
		t.Errorf("String = %q", s)
	}
	nm := m.Named("triangle")
	if nm.Name() != "triangle" || m.Name() != "M(3,3)" {
		t.Error("Named mutated the receiver or failed")
	}
}

func TestEdgeEndpointsAlongPath(t *testing.T) {
	m := MustPath(0, 1, 2, 3, 1) // M(4,4)B
	wantSrc := []int{0, 1, 2, 3}
	wantDst := []int{1, 2, 3, 1}
	for i := 0; i < m.NumEdges(); i++ {
		if m.EdgeSource(i) != wantSrc[i] || m.EdgeTarget(i) != wantDst[i] {
			t.Errorf("edge %d = (%d,%d), want (%d,%d)", i, m.EdgeSource(i), m.EdgeTarget(i), wantSrc[i], wantDst[i])
		}
	}
}
