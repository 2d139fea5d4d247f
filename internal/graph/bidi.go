package graph

// Bidirectional bounded point-to-point search — the production kernel
// behind DijkstraTarget and PathTo, i.e. behind every "is there a path of
// length ≤ bound?" query in the repository: the greedy acceptance rule
// (greedy.Accept, hence SEQ-GREEDY, core.Build, and dynamic repair),
// stretch verification (metrics), and the serving layer's /route path.
//
// The kernel grows a Dijkstra frontier from both endpoints at once — the
// graph is undirected, so the backward search reuses the same adjacency —
// expanding, at each step, the side with the smaller frontier (fewer
// labeled-but-unsettled vertices). The frontier is the marginal settling
// cost per unit of search radius, so balancing frontiers rather than radii
// adapts the radius split to geometry: a destination in a sparse corner
// gets the larger share of the radius budget. μ tracks the best meeting
// seen so far: whenever a relaxation labels a vertex that the opposite
// frontier has already labeled, the concatenated distance is a candidate.
// The search stops when
//
//	minF + minB ≥ μ   (μ is provably the exact distance), or
//	minF + minB > bound (no path of length ≤ bound exists),
//
// or when either frontier empties. The stop rule is valid under any
// alternation policy: within one side, popped keys are non-decreasing, so
// minF + minB is a lower bound on any path yet to be discovered.
//
// Compared to the unidirectional kernel, which settles the full distance
// ball of radius min(d, bound) around the source, the two frontiers each
// reach only about half that radius. The saving is dimension-dependent:
// two half-radius balls hold ~1/2 the vertices of the full ball in the
// plane and ~1/4 in 3-D (nothing in a degenerate 1-D corridor, and less
// near deployment boundaries, where clipped balls grow quasi-linearly).
// TestBidiSettlesFewer pins the aggregate settled-vertex ratio across 2-D
// and 3-D workloads; benchstat shows the wall-clock consequence.
//
// The search is one loop over any Topology. It asserts g.(*Frozen) once
// per search and, per settled vertex, slices the row straight out of the
// CSR halfedge slab through the (offset, degree) row table when g is a
// *Frozen, calling g.Neighbors otherwise — so the serving layer, whose
// snapshots are always *Frozen, pays no interface call inside the loop. The
// row selection is written inline because as a helper function it costs
// 85 against Go's inlining budget of 80, which would put a call back on
// every settled vertex. The forward and backward halves stay written out
// rather than sharing one step over a frontier struct, which measured
// slower. Equivalence on both representations and against the
// unidirectional reference kernel is pinned by the differential fuzz suite
// in bidi_test.go and by TestFrozenSearchAgrees.

// biInit primes both frontiers for a point-to-point search on an n-vertex
// topology. Forward state (seen/dist/prev/heap) seeds at src, backward
// state (seenB/distB/prevB/heapB) at dst; both share one epoch.
func (s *Searcher) biInit(n, src, dst int) {
	s.begin(n)
	s.heapB = s.heapB[:0]
	s.seen[src] = s.epoch
	s.dist[src] = 0
	s.prev[src] = -1
	heapPush(&s.heap, 0, int32(src))
	s.seenB[dst] = s.epoch
	s.distB[dst] = 0
	s.prevB[dst] = -1
	heapPush(&s.heapB, 0, int32(dst))
}

// endpointsIn reports whether src and dst are both vertices of g. The
// point-to-point kernels answer not-found for any endpoint outside it.
func endpointsIn(g Topology, src, dst int) bool {
	n := g.N()
	return src >= 0 && src < n && dst >= 0 && dst < n
}

// biSearch runs the prologue shared by the point-to-point kernels, then
// the bidirectional bounded search. It returns the meeting vertex and the
// meeting distance μ, or (-1, Inf) when an endpoint is out of range or no
// path of length ≤ bound exists; src == dst meets at src at distance 0
// without counting a search. On success with src != dst the shortest path
// is prev-chain(meet)..src reversed, then prevB-chain(meet)..dst;
// relaxations only ever come from settled vertices, whose distances are
// final, so both chains are consistent with the final labels.
func (s *Searcher) biSearch(g Topology, src, dst int, bound float64, existOnly bool) (int32, float64) {
	if !endpointsIn(g, src, dst) {
		return -1, Inf
	}
	if src == dst {
		return int32(src), 0
	}
	s.stats.Searches++
	f, _ := g.(*Frozen)
	s.biInit(g.N(), src, dst)
	mu := Inf
	meet := int32(-1)
	var settledF, settledB int64
	labeledF, labeledB := int64(1), int64(1)
	for len(s.heap) > 0 && len(s.heapB) > 0 {
		if sum := s.heap[0].dist + s.heapB[0].dist; sum >= mu || sum > bound {
			break
		}
		if existOnly && meet >= 0 && mu <= bound {
			break // a path within the bound exists; minimality not required
		}
		if labeledF-settledF <= labeledB-settledB {
			it := heapPop(&s.heap)
			v := int(it.v)
			if it.dist > s.dist[v] {
				continue // stale entry: v already settled closer
			}
			settledF++
			topB := s.heapB[0].dist // fixed while this side expands
			var row []Halfedge
			if f != nil {
				r := f.rows[v]
				row = f.slab[r.off : r.off+r.deg]
			} else {
				row = g.Neighbors(v)
			}
			for _, h := range row {
				nd := it.dist + h.W
				if nd > bound {
					continue
				}
				if s.seen[h.To] == s.epoch {
					if s.dist[h.To] <= nd {
						continue
					}
				} else {
					s.seen[h.To] = s.epoch
					labeledF++
				}
				s.dist[h.To] = nd
				s.prev[h.To] = int32(v)
				if s.seenB[h.To] == s.epoch {
					if m := nd + s.distB[h.To]; m < mu {
						mu, meet = m, int32(h.To)
					}
				}
				// Push-prune: expanding this label could only reach paths of
				// length >= nd+topB; if that already exceeds min(mu, bound)
				// the label still serves as a meeting candidate (stored
				// above) but never needs to settle.
				if pb := nd + topB; pb <= bound && pb < mu {
					heapPush(&s.heap, nd, int32(h.To))
				}
			}
		} else {
			it := heapPop(&s.heapB)
			v := int(it.v)
			if it.dist > s.distB[v] {
				continue
			}
			settledB++
			topF := s.heap[0].dist
			var row []Halfedge
			if f != nil {
				r := f.rows[v]
				row = f.slab[r.off : r.off+r.deg]
			} else {
				row = g.Neighbors(v)
			}
			for _, h := range row {
				nd := it.dist + h.W
				if nd > bound {
					continue
				}
				if s.seenB[h.To] == s.epoch {
					if s.distB[h.To] <= nd {
						continue
					}
				} else {
					s.seenB[h.To] = s.epoch
					labeledB++
				}
				s.distB[h.To] = nd
				s.prevB[h.To] = int32(v)
				if s.seen[h.To] == s.epoch {
					if m := nd + s.dist[h.To]; m < mu {
						mu, meet = m, int32(h.To)
					}
				}
				if pf := nd + topF; pf <= bound && pf < mu {
					heapPush(&s.heapB, nd, int32(h.To))
				}
			}
		}
	}
	s.stats.Settled += settledF + settledB
	if mu > bound {
		return -1, Inf
	}
	return meet, mu
}

// DijkstraTarget returns the shortest-path distance from src to dst in g,
// abandoning the search once no path of length at most bound can exist.
// The boolean result reports whether a path of length at most bound
// exists. This is the primitive behind every greedy "is there a t-spanner
// path already?" query; it runs bidirectionally (see the package comment
// at the top of this file). An endpoint outside g finds no path.
func (s *Searcher) DijkstraTarget(g Topology, src, dst int, bound float64) (float64, bool) {
	meet, mu := s.biSearch(g, src, dst, bound, false)
	if meet < 0 {
		return Inf, false
	}
	return mu, true
}

// PathTo returns the vertex sequence of a shortest src→dst path of length
// at most bound, with its length. The path slice is freshly allocated (it
// outlives the next search); scratch state is still reused. Hot loops that
// can recycle the result should call AppendPathTo instead.
func (s *Searcher) PathTo(g Topology, src, dst int, bound float64) ([]int, float64, bool) {
	path, d, ok := s.AppendPathTo(nil, g, src, dst, bound)
	if !ok {
		return nil, Inf, false
	}
	return path, d, true
}

// AppendPathTo is PathTo in append style: the path is appended to buf
// (which may be nil) and the extended slice returned, alongside the path
// length and whether a path of length at most bound exists. When not
// found, buf is returned unchanged. The buffer is grown with a single
// exactly-sized allocation when its capacity does not suffice, so a caller
// reusing a warmed buffer performs zero allocations per route — this is
// the variant routing.Router and the serving layer's uncached path run on.
func (s *Searcher) AppendPathTo(buf []int, g Topology, src, dst int, bound float64) ([]int, float64, bool) {
	meet, mu := s.biSearch(g, src, dst, bound, false)
	if meet < 0 {
		return buf, Inf, false
	}
	if src == dst {
		return append(buf, src), 0, true
	}
	// Stitch the two prev trees: count both chain lengths first so the
	// buffer grows with one exact allocation, then fill the forward half
	// backwards from the meeting vertex and the backward half forwards.
	cf := 0
	for x := meet; x != -1; x = s.prev[x] {
		cf++
	}
	cb := 0
	for x := meet; x != -1; x = s.prevB[x] {
		cb++
	}
	base := len(buf)
	total := cf + cb - 1 // meet counted once
	if cap(buf)-base < total {
		nb := make([]int, base+total)
		copy(nb, buf)
		buf = nb
	} else {
		buf = buf[:base+total]
	}
	i := base + cf - 1
	for x := meet; x != -1; x = s.prev[x] {
		buf[i] = int(x)
		i--
	}
	i = base + cf
	for x := s.prevB[meet]; x != -1; x = s.prevB[x] {
		buf[i] = int(x)
		i++
	}
	return buf, mu, true
}

// ReachableWithin reports whether a path of length at most bound connects
// src and dst — DijkstraTarget without the exact distance. The search
// stops at the first meeting within the bound instead of running on until
// the meeting is provably minimal, which skips the endgame entirely on
// accept-style probes; the boolean is identical to DijkstraTarget's. This
// is the primitive greedy.Accept runs on: SEQ-GREEDY, the relaxed
// algorithm's redundancy filter, and the dynamic engine's repair replay
// only ever need existence.
func (s *Searcher) ReachableWithin(g Topology, src, dst int, bound float64) bool {
	meet, _ := s.biSearch(g, src, dst, bound, true)
	return meet >= 0
}
