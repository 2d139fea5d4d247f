package geom

import "math"

// DynamicGrid is a uniform spatial hash over R^d for fixed-radius neighbor
// queries on a point set that changes over time. internal/dynamic uses it
// to keep α-UBG incidence queries O(3^d) per operation while nodes join,
// leave and move: with a cell side equal to the query radius only O(3^d)
// cells need to be inspected per query, where a naive scan costs O(n). For
// a static point set read by parallel workers, use CellGrid.
//
// Points are identified by caller-chosen dense integer ids (the dynamic
// engine's vertex slots); ids may be added, removed, and re-added freely.
// A DynamicGrid reuses internal scratch buffers between queries and is not
// safe for concurrent use.
type DynamicGrid struct {
	cell   float64
	dim    int
	cells  map[string][]int
	points []Point // id-indexed; nil marks an absent id
	count  int

	// Query scratch, reused across calls so neighbor scans perform no
	// steady-state allocations.
	keybuf  []byte
	base    []int64
	offsets []int64
}

// NewDynamicGrid returns an empty grid with the given cell side. cell must
// be positive. The dimension is fixed by the first point added.
func NewDynamicGrid(cell float64) *DynamicGrid {
	if cell <= 0 {
		panic("geom: grid cell side must be positive")
	}
	return &DynamicGrid{cell: cell, cells: make(map[string][]int)}
}

// setDim fixes the dimension and sizes the scratch buffers.
func (g *DynamicGrid) setDim(dim int) {
	g.dim = dim
	g.keybuf = make([]byte, 0, 8*dim)
	g.base = make([]int64, dim)
	g.offsets = make([]int64, dim)
}

// key computes the cell key of point p. Keys are encoded as small byte
// strings of the integer cell coordinates; map[string] gives us a compact,
// allocation-friendly multi-dimensional hash without unsafe tricks.
func (g *DynamicGrid) key(p Point) string {
	buf := g.keybuf[:0]
	for _, c := range p {
		ic := int64(math.Floor(c / g.cell))
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(ic>>s))
		}
	}
	g.keybuf = buf
	return string(buf)
}

// Add indexes point p under id. It panics if id is already present or the
// dimension disagrees with previously added points.
func (g *DynamicGrid) Add(id int, p Point) {
	if id < 0 {
		panic("geom: negative grid id")
	}
	if g.dim == 0 {
		if p.Dim() == 0 {
			panic("geom: zero-dimensional point")
		}
		g.setDim(p.Dim())
	} else if p.Dim() != g.dim {
		panic("geom: grid dimension mismatch")
	}
	for id >= len(g.points) {
		g.points = append(g.points, nil)
	}
	if g.points[id] != nil {
		panic("geom: duplicate grid id")
	}
	g.points[id] = p
	k := g.key(p)
	g.cells[k] = append(g.cells[k], id)
	g.count++
}

// Remove drops id from the index. It panics if id is not present.
func (g *DynamicGrid) Remove(id int) {
	p := g.point(id)
	k := g.key(p)
	bucket := g.cells[k]
	for i, x := range bucket {
		if x == id {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			// Deleting drained buckets keeps the map from growing without
			// bound as churn sweeps points across cells.
			if len(bucket) == 0 {
				delete(g.cells, k)
			} else {
				g.cells[k] = bucket
			}
			g.points[id] = nil
			g.count--
			return
		}
	}
	panic("geom: grid id missing from its cell")
}

// Move reindexes id at its new position p. Small mobility steps usually
// stay within the point's current cell, in which case only the stored
// position changes and the bucket map is untouched.
func (g *DynamicGrid) Move(id int, p Point) {
	old := g.point(id)
	if p.Dim() == g.dim && g.key(old) == g.key(p) {
		g.points[id] = p
		return
	}
	g.Remove(id)
	g.Add(id, p)
}

// Point returns the indexed position of id (nil if absent).
func (g *DynamicGrid) Point(id int) Point {
	if id < 0 || id >= len(g.points) {
		return nil
	}
	return g.points[id]
}

func (g *DynamicGrid) point(id int) Point {
	if id < 0 || id >= len(g.points) || g.points[id] == nil {
		panic("geom: unknown grid id")
	}
	return g.points[id]
}

// NeighborsAppend appends to dst the ids of all indexed points q (other
// than id self; pass -1 to disable self-exclusion) with |p - q| <= radius,
// and returns the extended slice. Passing dst[:0] of a slice reused across
// calls makes the query allocation-free once the slice has grown to the
// largest neighborhood. radius is supported up to any multiple of the cell
// side (⌈radius/cell⌉ cells are scanned per axis), but the scan is most
// efficient when radius <= cell. Not safe for concurrent use: the query
// reuses the grid's scratch buffers.
func (g *DynamicGrid) NeighborsAppend(dst []int, p Point, radius float64, self int) []int {
	if g.count == 0 {
		return dst
	}
	if p.Dim() != g.dim {
		panic("geom: grid dimension mismatch")
	}
	span := int64(math.Ceil(radius / g.cell))
	for i, c := range p {
		g.base[i] = int64(math.Floor(c / g.cell))
		g.offsets[i] = -span
	}
	r2 := radius * radius
	for {
		// Visit cell base+offsets.
		buf := g.keybuf[:0]
		for i := 0; i < g.dim; i++ {
			ic := g.base[i] + g.offsets[i]
			for s := 0; s < 64; s += 8 {
				buf = append(buf, byte(ic>>s))
			}
		}
		g.keybuf = buf
		for _, idx := range g.cells[string(buf)] {
			if idx == self {
				continue
			}
			if DistSq(p, g.points[idx]) <= r2 {
				dst = append(dst, idx)
			}
		}
		// Advance the offset vector like an odometer.
		i := 0
		for ; i < g.dim; i++ {
			g.offsets[i]++
			if g.offsets[i] <= span {
				break
			}
			g.offsets[i] = -span
		}
		if i == g.dim {
			break
		}
	}
	return dst
}

// Len returns the number of indexed points.
func (g *DynamicGrid) Len() int { return g.count }
