package ubg

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// BuildFrozen constructs the α-UBG over the given points directly as an
// immutable CSR snapshot — the million-vertex build path. Candidate edges
// are generated grid-cell-parallel straight into a pre-sized append-only
// slab: a counting pass accumulates per-vertex degrees, a fill pass writes
// each adjacency row in place, and no intermediate edge list, map, or
// per-edge allocation exists at any point. Every grey-zone model is
// supported; acceptance is deterministic and symmetric per unordered pair
// (pairRand and the obstacle test are order-independent by construction),
// so the result is identical regardless of worker count and bit-identical
// to the sequential path's edge set.
func BuildFrozen(points []geom.Point, cfg Config) (*graph.Frozen, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model == 0 {
		cfg.Model = ModelAll
	}
	if err := checkDims(points); err != nil {
		return nil, err
	}
	return buildCSR(points, 1.0, greyKeep(points, cfg)), nil
}

// BuildRadius constructs the deterministic ball graph at the given radius —
// every pair at distance ≤ radius connected, Euclidean weights — as a
// frozen CSR snapshot via the same parallel path. It is the bulk
// construction primitive behind the dynamic engines' initial base graph
// (the ModelAll graph at Options.Radius).
func BuildRadius(points []geom.Point, radius float64) (*graph.Frozen, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("ubg: radius %v must be positive", radius)
	}
	if err := checkDims(points); err != nil {
		return nil, err
	}
	return buildCSR(points, radius, nil), nil
}

// checkDims validates that all points share the first point's dimension.
func checkDims(points []geom.Point) error {
	if len(points) == 0 {
		return nil
	}
	d := points[0].Dim()
	for i, p := range points {
		if p.Dim() != d {
			return fmt.Errorf("ubg: point %d has dimension %d, want %d", i, p.Dim(), d)
		}
	}
	return nil
}

// greyKeep compiles cfg into the per-pair acceptance predicate buildCSR
// evaluates on every in-radius candidate, or nil when every pair is kept
// (ModelAll — the predicate call is skipped entirely). The predicate must
// be deterministic and symmetric in (u, v): both directed scans of a pair
// must agree, and the counting and fill passes must agree.
func greyKeep(points []geom.Point, cfg Config) func(u, v int, dist float64) bool {
	alpha := cfg.Alpha
	switch cfg.Model {
	case ModelNone:
		return func(u, v int, dist float64) bool {
			return dist <= alpha
		}
	case ModelBernoulli:
		seed, p := cfg.Seed, cfg.P
		return func(u, v int, dist float64) bool {
			return dist <= alpha || pairRand(seed, u, v) < p
		}
	case ModelFalloff:
		seed := cfg.Seed
		return func(u, v int, dist float64) bool {
			return dist <= alpha || pairRand(seed, u, v) < (1-dist)/(1-alpha)
		}
	case ModelObstacle:
		if len(points) == 0 {
			return nil
		}
		slabs := obstacleSlabs(points, cfg)
		return func(u, v int, dist float64) bool {
			return dist <= alpha || !blocked(points[u], points[v], slabs)
		}
	default: // ModelAll
		return nil
	}
}

// csrCellChunk is how many grid cells a worker claims per atomic fetch —
// coarse enough that the counter never contends, fine enough to balance
// ragged cell occupancies across workers.
const csrCellChunk = 16

// buildCSR is the shared parallel construction core: bucket the points
// into radius-sized cells (geom.CellGrid), then two passes over the cells
// — degree count, then row fill — with cells fanned out across
// GOMAXPROCS workers. A vertex belongs to exactly one cell and a cell is
// claimed by exactly one worker per pass, so every Deg[u] increment and
// every row write is single-writer without locks. Distances are
// recomputed in the fill pass instead of buffered between passes: at 16
// bytes per halfedge a candidate buffer would dwarf the output slab, and
// the second DistSq/sqrt is cheaper than that memory traffic. keep (when
// non-nil) must be deterministic and symmetric so the passes and the two
// directed scans of each pair all agree; pair inclusion matches
// DynamicGrid semantics exactly (DistSq ≤ radius²).
func buildCSR(points []geom.Point, radius float64, keep func(u, v int, dist float64) bool) *graph.Frozen {
	n := len(points)
	b := graph.NewCSRBuilder(n)
	if n == 0 {
		return b.Finish()
	}
	cg := geom.NewCellGrid(points, radius)
	cells := cg.Cells()
	workers := runtime.GOMAXPROCS(0)
	if max := (cells + csrCellChunk - 1) / csrCellChunk; workers > max {
		workers = max
	}
	r2 := radius * radius

	// pass scans every cell once: for each vertex u owned by a claimed
	// cell, every candidate v in the 3^d neighbor block is tested and the
	// accepted (u, v, dist) triples are handed to emit. emit writes only
	// u-indexed state, so the single-writer argument above applies.
	pass := func(emit func(u, v int32, d float64)) {
		var next atomic.Int64
		scan := func() {
			sc := cg.NewScan()
			var ncells []int32
			for {
				lo := int(next.Add(csrCellChunk)) - csrCellChunk
				if lo >= cells {
					return
				}
				hi := lo + csrCellChunk
				if hi > cells {
					hi = cells
				}
				for c := lo; c < hi; c++ {
					ncells = cg.NeighborCells(ncells[:0], c, sc)
					for _, u := range cg.CellIDs(c) {
						pu := points[u]
						for _, nc := range ncells {
							for _, v := range cg.CellIDs(int(nc)) {
								if v == u {
									continue
								}
								d2 := geom.DistSq(pu, points[v])
								if d2 > r2 {
									continue
								}
								d := math.Sqrt(d2)
								if keep != nil && !keep(int(u), int(v), d) {
									continue
								}
								emit(u, v, d)
							}
						}
					}
				}
			}
		}
		if workers <= 1 {
			scan()
			return
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scan()
			}()
		}
		wg.Wait()
	}

	pass(func(u, v int32, d float64) { b.Deg[u]++ })
	b.Alloc()
	fill := make([]int32, n) // row cursors; each written by u's owner only
	pass(func(u, v int32, d float64) {
		b.Row(int(u))[fill[u]] = graph.Halfedge{To: int(v), W: d}
		fill[u]++
	})
	return b.Finish()
}
