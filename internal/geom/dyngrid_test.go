package geom

import (
	"math/rand"
	"sort"
	"testing"
)

// naiveNeighborsDyn is the quadratic reference for DynamicGrid queries.
func naiveNeighborsDyn(pts map[int]Point, p Point, radius float64, self int) []int {
	var out []int
	for id, q := range pts {
		if id == self {
			continue
		}
		if DistSq(p, q) <= radius*radius {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// TestDynamicGridDifferential churns a grid through adds, removes and moves
// and checks every query against the naive scan.
func TestDynamicGridDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewDynamicGrid(1.0)
	ref := map[int]Point{}
	nextID := 0
	randPoint := func() Point {
		return Point{rng.Float64() * 5, rng.Float64() * 5}
	}
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(ref) == 0: // add
			p := randPoint()
			g.Add(nextID, p)
			ref[nextID] = p
			nextID++
		case op == 1: // remove
			for id := range ref {
				g.Remove(id)
				delete(ref, id)
				break
			}
		default: // move
			for id := range ref {
				p := randPoint()
				g.Move(id, p)
				ref[id] = p
				break
			}
		}
		if g.Len() != len(ref) {
			t.Fatalf("step %d: Len %d != %d", step, g.Len(), len(ref))
		}
		q := randPoint()
		radius := 0.3 + rng.Float64()*1.5
		got := append([]int(nil), g.NeighborsAppend(nil, q, radius, -1)...)
		sort.Ints(got)
		want := naiveNeighborsDyn(ref, q, radius, -1)
		if len(got) != len(want) {
			t.Fatalf("step %d: got %v, want %v", step, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: got %v, want %v", step, got, want)
			}
		}
	}
}

func TestDynamicGridSelfExclusionAndReuse(t *testing.T) {
	g := NewDynamicGrid(1.0)
	g.Add(0, Point{0, 0})
	g.Add(1, Point{0.5, 0})
	if got := g.NeighborsAppend(nil, Point{0, 0}, 1, 0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("self-exclusion broken: %v", got)
	}
	if p := g.Point(1); p == nil || p[0] != 0.5 {
		t.Fatalf("Point(1) = %v", p)
	}
	g.Remove(1)
	if g.Point(1) != nil {
		t.Fatal("removed id still indexed")
	}
	// Freed id is re-addable.
	g.Add(1, Point{2, 2})
	if got := g.NeighborsAppend(nil, Point{2, 2}, 0.1, -1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("re-added id not found: %v", got)
	}
}

func TestDynamicGridPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	g := NewDynamicGrid(1.0)
	g.Add(0, Point{0, 0})
	expectPanic("duplicate add", func() { g.Add(0, Point{1, 1}) })
	expectPanic("dim mismatch", func() { g.Add(1, Point{1, 1, 1}) })
	expectPanic("remove unknown", func() { g.Remove(5) })
}

// indexAll adds points[i] under id i to a fresh grid and returns it with
// the matching reference map.
func indexAll(points []Point, cell float64) (*DynamicGrid, map[int]Point) {
	g := NewDynamicGrid(cell)
	ref := make(map[int]Point, len(points))
	for i, p := range points {
		g.Add(i, p)
		ref[i] = p
	}
	return g, ref
}

// TestGridMatchesNaive checks static point sets against the naive scan
// across dimensions, with cells smaller than, equal to and much larger
// than the query radius (the multi-cell odometer scan and the tiny-radius
// single-cell case). Coordinates span [-10, 10], so negative cells occur.
func TestGridMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, tc := range []struct {
		n      int
		d      int
		cell   float64
		radius float64
	}{
		{n: 200, d: 2, cell: 0.25, radius: 0.25},
		{n: 200, d: 2, cell: 0.25, radius: 0.6}, // radius > cell: multi-cell scan
		{n: 150, d: 3, cell: 0.3, radius: 0.3},
		{n: 100, d: 4, cell: 0.5, radius: 0.45},
		{n: 50, d: 2, cell: 1.0, radius: 0.05}, // tiny radius in big cells
	} {
		points := make([]Point, tc.n)
		for i := range points {
			points[i] = randPoint(rng, tc.d)
		}
		grid, ref := indexAll(points, tc.cell)
		for trial := 0; trial < 30; trial++ {
			self := rng.Intn(tc.n)
			got := grid.NeighborsAppend(nil, points[self], tc.radius, self)
			sort.Ints(got)
			want := naiveNeighborsDyn(ref, points[self], tc.radius, self)
			if len(got) != len(want) {
				t.Fatalf("n=%d d=%d r=%v: got %d neighbors, want %d", tc.n, tc.d, tc.radius, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d d=%d: neighbor mismatch %v vs %v", tc.n, tc.d, got, want)
				}
			}
		}
	}
}

func TestGridNegativeCoordinates(t *testing.T) {
	// Floor-based cell keys must work for negative coordinates too.
	points := []Point{{-0.9, -0.9}, {-1.1, -1.1}, {0.1, 0.1}}
	grid, _ := indexAll(points, 1.0)
	got := grid.NeighborsAppend(nil, points[0], 0.5, 0)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("Neighbors = %v, want [1]", got)
	}
}

func TestGridSelfExclusion(t *testing.T) {
	points := []Point{{0, 0}, {0.1, 0}}
	grid, _ := indexAll(points, 1.0)
	with := grid.NeighborsAppend(nil, points[0], 1, -1)
	without := grid.NeighborsAppend(nil, points[0], 1, 0)
	if len(with) != 2 || len(without) != 1 {
		t.Errorf("self exclusion broken: with=%v without=%v", with, without)
	}
}

func TestGridEmpty(t *testing.T) {
	grid := NewDynamicGrid(1.0)
	if grid.Len() != 0 {
		t.Errorf("Len = %d", grid.Len())
	}
	if got := grid.NeighborsAppend(nil, Point{0, 0}, 1, -1); got != nil {
		t.Errorf("Neighbors on empty grid = %v", got)
	}
}

func TestGridInvalidCellPanics(t *testing.T) {
	for _, cell := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("cell %v: expected panic on non-positive cell", cell)
				}
			}()
			NewDynamicGrid(cell)
		}()
	}
}

func TestGridBoundaryInclusive(t *testing.T) {
	points := []Point{{0, 0}, {1, 0}}
	grid, _ := indexAll(points, 0.5)
	got := grid.NeighborsAppend(nil, points[0], 1.0, 0)
	if len(got) != 1 {
		t.Errorf("boundary point not included: %v", got)
	}
}
