package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// frozenRandGraph builds a random simple graph on n vertices with roughly the
// requested number of edges.
func frozenRandGraph(rng *rand.Rand, n, edges int) *Graph {
	g := New(n)
	for tries := 0; g.M() < edges && tries < 20*edges; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.AddEdge(u, v, 0.1+rng.Float64())
	}
	return g
}

// edgeSet renders a topology's edge set canonically for comparison.
func edgeSet(t Topology) string {
	es := t.EdgesUnordered()
	keys := make([]string, len(es))
	for i, e := range es {
		keys[i] = fmt.Sprintf("%d-%d:%.12f", e.U, e.V, e.W)
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// requireSameTopology checks that f and g agree on every Topology method.
func requireSameTopology(t *testing.T, f *Frozen, g *Graph) {
	t.Helper()
	if f.N() != g.N() || f.M() != g.M() {
		t.Fatalf("size mismatch: frozen %d/%d, graph %d/%d", f.N(), f.M(), g.N(), g.M())
	}
	if f.MaxDegree() != g.MaxDegree() {
		t.Fatalf("max degree %d != %d", f.MaxDegree(), g.MaxDegree())
	}
	if w1, w2 := f.TotalWeight(), g.TotalWeight(); math.Abs(w1-w2) > 1e-9*(1+math.Abs(w2)) {
		t.Fatalf("total weight %v != %v", w1, w2)
	}
	for u := 0; u < g.N(); u++ {
		if f.Degree(u) != g.Degree(u) {
			t.Fatalf("degree(%d) %d != %d", u, f.Degree(u), g.Degree(u))
		}
		for _, h := range g.Neighbors(u) {
			if !f.HasEdge(u, h.To) {
				t.Fatalf("frozen lost edge {%d,%d}", u, h.To)
			}
			if w, ok := f.EdgeWeight(u, h.To); !ok || w != h.W {
				t.Fatalf("edge weight {%d,%d}: %v/%v, want %v", u, h.To, w, ok, h.W)
			}
		}
	}
	if edgeSet(f) != edgeSet(g) {
		t.Fatalf("edge sets differ:\n frozen %s\n graph  %s", edgeSet(f), edgeSet(g))
	}
}

func TestFreezeMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		g := frozenRandGraph(rng, n, rng.Intn(3*n))
		requireSameTopology(t, Freeze(g), g)
	}
}

func TestFreezeDegenerate(t *testing.T) {
	// Empty graph.
	f := Freeze(New(0))
	if f.N() != 0 || f.M() != 0 || f.MaxDegree() != 0 || f.TotalWeight() != 0 {
		t.Fatalf("empty freeze: %d/%d", f.N(), f.M())
	}
	if len(f.EdgesUnordered()) != 0 {
		t.Fatal("empty freeze has edges")
	}

	// Single vertex.
	f = Freeze(New(1))
	if f.N() != 1 || f.Degree(0) != 0 || len(f.Neighbors(0)) != 0 {
		t.Fatalf("single-vertex freeze: n=%d deg=%d", f.N(), f.Degree(0))
	}
	if f.HasEdge(0, 0) {
		t.Fatal("phantom self-edge")
	}

	// Post-Grow: frozen view includes the grown, isolated range.
	g := New(2)
	g.AddEdge(0, 1, 1.5)
	g.Grow(6)
	g.AddEdge(4, 5, 2.5)
	f = Freeze(g)
	requireSameTopology(t, f, g)
	if f.Degree(3) != 0 {
		t.Fatalf("grown vertex degree %d", f.Degree(3))
	}
}

func TestFrozenOutOfRange(t *testing.T) {
	f := Freeze(New(3))
	if f.HasEdge(-1, 2) || f.HasEdge(0, 3) {
		t.Fatal("out-of-range HasEdge true")
	}
	if _, ok := f.EdgeWeight(7, 0); ok {
		t.Fatal("out-of-range EdgeWeight ok")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Neighbors(-1) did not panic")
		}
	}()
	f.Neighbors(-1)
}

// TestFrozenNeighborsSealed checks the returned rows are capacity-clamped:
// an append by a misbehaving caller must not overwrite the next row in the
// shared slab.
func TestFrozenNeighborsSealed(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	f := Freeze(g)
	row := f.Neighbors(0)
	_ = append(row, Halfedge{To: 99, W: 99})
	requireSameTopology(t, f, g)
}

func TestThawRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := frozenRandGraph(rng, 20, 40)
	th := Freeze(g).Thaw()
	requireSameTopology(t, Freeze(th), g)
	// The thawed copy is independent of the frozen original.
	th.AddEdge(0, 19, 9)
	if !th.HasEdge(0, 19) {
		t.Fatal("thawed graph not mutable")
	}
}

// TestUpdateFrozenDifferential drives random mutation sequences against a
// mutable graph while maintaining a frozen snapshot chain via UpdateFrozen,
// and checks after every step that the chained snapshot is indistinguishable
// from a from-scratch Freeze.
func TestUpdateFrozenDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(20)
		g := frozenRandGraph(rng, n, 2*n)
		f := Freeze(g)
		for step := 0; step < 40; step++ {
			var touched []int
			switch r := rng.Float64(); {
			case r < 0.45: // add an edge
				u, v := rng.Intn(g.N()), rng.Intn(g.N())
				if u == v || g.HasEdge(u, v) {
					break
				}
				g.AddEdge(u, v, 0.1+rng.Float64())
				touched = []int{u, v}
			case r < 0.8: // remove an edge
				es := g.EdgesUnordered()
				if len(es) == 0 {
					break
				}
				e := es[rng.Intn(len(es))]
				g.RemoveEdge(e.U, e.V)
				touched = []int{e.U, e.V}
			default: // grow
				g.Grow(g.N() + 1 + rng.Intn(3))
			}
			f = UpdateFrozen(f, g, touched)
			requireSameTopology(t, f, g)
		}
	}
}

func TestUpdateFrozenSharing(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 2)
	g.AddEdge(4, 5, 3)
	f1 := Freeze(g)

	// No touched rows: the previous snapshot is returned by identity.
	if f2 := UpdateFrozen(f1, g, nil); f2 != f1 {
		t.Fatal("no-op update did not return the previous snapshot")
	}

	// Touched rows that compare equal (net-zero batch: add then remove)
	// also return the previous snapshot by identity.
	g.AddEdge(0, 3, 9)
	g.RemoveEdge(0, 3)
	if f2 := UpdateFrozen(f1, g, []int{0, 3}); f2 != f1 {
		t.Fatal("net-zero update did not return the previous snapshot")
	}

	// A real change produces a new snapshot that only rebuilds the touched
	// rows.
	g.AddEdge(0, 2, 7)
	f2 := UpdateFrozen(f1, g, []int{0, 2})
	requireSameTopology(t, f2, g)
	if f2 == f1 {
		t.Fatal("real update returned the previous snapshot")
	}
	// The old snapshot still answers from its own version.
	if f1.HasEdge(0, 2) {
		t.Fatal("old snapshot sees the new edge")
	}
	if !f2.HasEdge(0, 2) {
		t.Fatal("new snapshot misses the new edge")
	}

	// A further update in the chain shares storage with its predecessor:
	// untouched rows keep their spans (dirty rows are appended at the
	// tail, so a rebuilt row would have moved there).
	g.AddEdge(1, 5, 8)
	f3 := UpdateFrozen(f2, g, []int{1, 5})
	requireSameTopology(t, f3, g)
	if f3.rows[4] != f2.rows[4] || f3.rows[0] != f2.rows[0] {
		t.Fatal("untouched rows were rebuilt instead of shared")
	}
	if f3.rows[1].off < int32(len(f2.slab)) {
		t.Fatal("dirty row was not appended at the slab tail")
	}
}

// TestFrozenSearchAgrees pins that every Searcher kernel reads a Graph and
// its Frozen counterpart identically: Freeze keeps each row's order, so
// the one search loop per kernel must return bit-identical answers and
// settle exactly as many vertices on either representation.
func TestFrozenSearchAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s1, s2 := NewSearcher(0), NewSearcher(0)
	sameWork := func(kernel string) {
		t.Helper()
		if w1, w2 := s1.Stats(), s2.Stats(); w1 != w2 {
			t.Fatalf("%s: graph stats %+v, frozen stats %+v", kernel, w1, w2)
		}
		s1.ResetStats()
		s2.ResetStats()
	}
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		g := frozenRandGraph(rng, n, 2*n)
		f := Freeze(g)
		for q := 0; q < 30; q++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			d1, ok1 := s1.DijkstraTarget(g, src, dst, Inf)
			d2, ok2 := s2.DijkstraTarget(f, src, dst, Inf)
			if ok1 != ok2 || d1 != d2 {
				t.Fatalf("DijkstraTarget(%d,%d): graph %v/%v, frozen %v/%v", src, dst, d1, ok1, d2, ok2)
			}
			sameWork("DijkstraTarget")
			p1, c1, okp1 := s1.PathTo(g, src, dst, Inf)
			p2, c2, okp2 := s2.PathTo(f, src, dst, Inf)
			if okp1 != okp2 || c1 != c2 || fmt.Sprint(p1) != fmt.Sprint(p2) {
				t.Fatalf("PathTo(%d,%d): graph %v %v/%v, frozen %v %v/%v", src, dst, p1, c1, okp1, p2, c2, okp2)
			}
			sameWork("PathTo")
			// A bound around the true distance makes half the probes
			// fail, exercising the bound cut as well as the early meet.
			bound := 2 * rng.Float64()
			if ok1 {
				bound *= d1
			}
			if r1, r2 := s1.ReachableWithin(g, src, dst, bound), s2.ReachableWithin(f, src, dst, bound); r1 != r2 {
				t.Fatalf("ReachableWithin(%d,%d,%v): graph %v, frozen %v", src, dst, bound, r1, r2)
			}
			sameWork("ReachableWithin")
		}
		src := rng.Intn(n)
		out1, out2 := make([]float64, n), make([]float64, n)
		s1.Dijkstra(g, src, Inf, out1)
		s2.Dijkstra(f, src, Inf, out2)
		if fmt.Sprint(out1) != fmt.Sprint(out2) {
			t.Fatalf("Dijkstra from %d: graph %v, frozen %v", src, out1, out2)
		}
		sameWork("Dijkstra")
		bound := 1.5 * rng.Float64()
		b1 := fmt.Sprint(s1.Ball(g, src, bound))
		b2 := fmt.Sprint(s2.Ball(f, src, bound))
		if b1 != b2 {
			t.Fatalf("Ball(%d,%v): graph %s, frozen %s", src, bound, b1, b2)
		}
		sameWork("Ball")
		// Prune below every vertex of a fixed set (here, multiples of 3
		// other than the source); record the visit sequence.
		var v1, v2 []VertexDist
		s1.DijkstraPruned(g, src, Inf, func(v int, d float64) bool {
			v1 = append(v1, VertexDist{v, d})
			return v == src || v%3 != 0
		})
		s2.DijkstraPruned(f, src, Inf, func(v int, d float64) bool {
			v2 = append(v2, VertexDist{v, d})
			return v == src || v%3 != 0
		})
		if fmt.Sprint(v1) != fmt.Sprint(v2) {
			t.Fatalf("DijkstraPruned(%d): graph %v, frozen %v", src, v1, v2)
		}
		sameWork("DijkstraPruned")
		hops := rng.Intn(4)
		h1 := fmt.Sprint(s1.HopBall(g, src, hops))
		h2 := fmt.Sprint(s2.HopBall(f, src, hops))
		if h1 != h2 {
			t.Fatalf("HopBall(%d,%d): graph %s, frozen %s", src, hops, h1, h2)
		}
		sameWork("HopBall")
	}
}

// TestPointQueriesRejectOutOfRangeEndpoints pins the shared prologue of
// the point-to-point kernels: an endpoint outside the vertex range finds
// no path, whichever side it is on and even when src == dst, on both
// representations.
func TestPointQueriesRejectOutOfRangeEndpoints(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	s := NewSearcher(0)
	for _, topo := range []Topology{g, Freeze(g)} {
		for _, tc := range []struct{ src, dst int }{
			{7, 7}, {9, 9}, {-1, -1}, {-1, 2}, {2, -1}, {4, 0}, {0, 4}, {4, 4},
		} {
			name := fmt.Sprintf("%T (%d,%d)", topo, tc.src, tc.dst)
			if d, ok := s.DijkstraTarget(topo, tc.src, tc.dst, Inf); ok || !math.IsInf(d, 1) {
				t.Errorf("%s: DijkstraTarget = (%v, %v), want (Inf, false)", name, d, ok)
			}
			if d, ok := s.DijkstraTargetUni(topo, tc.src, tc.dst, Inf); ok || !math.IsInf(d, 1) {
				t.Errorf("%s: DijkstraTargetUni = (%v, %v), want (Inf, false)", name, d, ok)
			}
			if p, d, ok := s.PathTo(topo, tc.src, tc.dst, Inf); ok || p != nil || !math.IsInf(d, 1) {
				t.Errorf("%s: PathTo = (%v, %v, %v), want (nil, Inf, false)", name, p, d, ok)
			}
			buf := []int{42}
			if p, _, ok := s.AppendPathTo(buf, topo, tc.src, tc.dst, Inf); ok || len(p) != 1 {
				t.Errorf("%s: AppendPathTo = (%v, %v), want buf unchanged", name, p, ok)
			}
			if s.ReachableWithin(topo, tc.src, tc.dst, 1) {
				t.Errorf("%s: ReachableWithin = true, want false", name)
			}
		}
		// In-range endpoints still answer, src == dst included.
		if d, ok := s.DijkstraTarget(topo, 3, 3, Inf); !ok || d != 0 {
			t.Errorf("%T: DijkstraTarget(3,3) = (%v, %v), want (0, true)", topo, d, ok)
		}
		if p, d, ok := s.PathTo(topo, 3, 3, Inf); !ok || d != 0 || len(p) != 1 || p[0] != 3 {
			t.Errorf("%T: PathTo(3,3) = (%v, %v, %v), want ([3], 0, true)", topo, p, d, ok)
		}
		if p, d, ok := s.PathTo(topo, 0, 3, Inf); !ok || d != 3 || fmt.Sprint(p) != "[0 1 2 3]" {
			t.Errorf("%T: PathTo(0,3) = (%v, %v, %v), want ([0 1 2 3], 3, true)", topo, p, d, ok)
		}
	}
}

// TestUpdateFrozenCompaction drives enough churn through one chain that the
// slab must compact, and checks correctness is unaffected and the slab stays
// bounded relative to the live edge set.
func TestUpdateFrozenCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := frozenRandGraph(rng, 16, 32)
	f := Freeze(g)
	for step := 0; step < 500; step++ {
		var touched []int
		if es := g.EdgesUnordered(); len(es) > 0 {
			e := es[rng.Intn(len(es))]
			g.RemoveEdge(e.U, e.V)
			touched = append(touched, e.U, e.V)
		}
		if u, v := rng.Intn(16), rng.Intn(16); u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v, 0.1+rng.Float64())
			touched = append(touched, u, v)
		}
		f = UpdateFrozen(f, g, touched)
	}
	requireSameTopology(t, f, g)
	if len(f.slab) > 3*2*g.M()+64 {
		t.Fatalf("slab never compacted: %d halfedges for m=%d", len(f.slab), g.M())
	}
}
