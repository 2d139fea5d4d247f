package main

import (
	"math/rand"
	"runtime"
	"time"

	"topoctl/internal/dynamic"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/greedy"
	"topoctl/internal/labels"
	"topoctl/internal/metrics"
	"topoctl/internal/routing"
	"topoctl/internal/service"
	"topoctl/internal/ubg"
)

// layerInput is what the layer probes run on: a workload's points and the
// base graph and spanner it served or built.
type layerInput struct {
	points        []geom.Point
	base, spanner *graph.Frozen
	seed          int64
	// labels probes labels.Build and Oracle.Query on the spanner.
	labels bool
	// replay is the op stream the dynamic probe applies to a private
	// engine built on points; replayLabels maintains a label oracle
	// through it as the serving writer does.
	replay       [][]service.Op
	replayLabels bool
}

// probeLayers times calls into each layer's public functions and records
// their counts.
func probeLayers(in layerInput, tr *tracer, rep *report) {
	probeGraph(in, tr, rep)
	probeBuilders(in, tr, rep)
	if in.labels {
		probeLabels(in, tr, rep)
	}
	probeDynamic(in, tr, rep)
	measureQuality(in.base, in.spanner).record(rep)
}

// probePairsOf draws the probe's uniform vertex pairs.
func probePairsOf(seed int64, n int) [][2]int {
	rng := rand.New(rand.NewSource(seed + 31))
	out := make([][2]int, probePairs)
	for i := range out {
		out[i][0], out[i][1] = uniformPair(rng, n)
	}
	return out
}

// probeGraph times the bidirectional search kernel on the spanner
// (PathTo, what an uncached /route runs) and on the base graph
// (DijkstraTarget, the stretch denominator of every uncached route).
func probeGraph(in layerInput, tr *tracer, rep *report) {
	parent, end := tr.start("probe.graph", 0)
	defer end()
	pairs := probePairsOf(in.seed, in.spanner.N())
	srch := graph.NewSearcher(in.spanner.N())
	var sp, base []float64
	for _, p := range pairs {
		_, e := tr.start("graph.Searcher.PathTo", parent)
		begin := time.Now()
		srch.PathTo(in.spanner, p[0], p[1], graph.Inf)
		sp = append(sp, us(time.Since(begin)))
		e()
	}
	st := srch.Stats()
	for _, p := range pairs {
		_, e := tr.start("graph.Searcher.DijkstraTarget", parent)
		begin := time.Now()
		srch.DijkstraTarget(in.base, p[0], p[1], graph.Inf)
		base = append(base, us(time.Since(begin)))
		e()
	}
	rep.layerMetric("graph.spanner_search_us", median(sp), "us")
	rep.layerMetric("graph.base_search_us", median(base), "us")
	rep.layerMetric("graph.settled_per_search", float64(st.Settled)/float64(st.Searches), "count")
}

// probeBuilders times the from-scratch builders behind a service boot:
// the frozen unit-ball graph and the greedy spanner.
func probeBuilders(in layerInput, tr *tracer, rep *report) {
	parent, end := tr.start("probe.builders", 0)
	defer end()
	runtime.GC()
	_, e := tr.start("ubg.BuildRadius", parent)
	begin := time.Now()
	g, err := ubg.BuildRadius(in.points, 1)
	rep.layerMetric("ubg.build_frozen_s", time.Since(begin).Seconds(), "s")
	e()
	if !rep.check(err == nil, "ubg.BuildRadius: %v", err) {
		return
	}
	runtime.GC()
	_, e = tr.start("greedy.Spanner", parent)
	begin = time.Now()
	greedy.Spanner(g, stretchT)
	rep.layerMetric("greedy.spanner_ms", ms(time.Since(begin)), "ms")
	e()
}

// probeLabels times a hub-label build on the spanner and its queries.
func probeLabels(in layerInput, tr *tracer, rep *report) {
	parent, end := tr.start("probe.labels", 0)
	defer end()
	runtime.GC()
	_, e := tr.start("labels.Build", parent)
	begin := time.Now()
	o := labels.Build(in.spanner, labels.Options{})
	rep.info("labels.build_s", time.Since(begin).Seconds(), "s")
	e()
	var q []float64
	srch := graph.NewSearcher(in.spanner.N())
	for _, p := range probePairsOf(in.seed, in.spanner.N()) {
		_, e := tr.start("labels.Oracle.Query", parent)
		begin := time.Now()
		d, ok := o.Query(p[0], p[1])
		q = append(q, us(time.Since(begin)))
		e()
		want, _ := srch.DijkstraTarget(in.spanner, p[0], p[1], graph.Inf)
		rep.check(!ok || near(d, want), "labels.Query(%d,%d) = %v, search %v", p[0], p[1], d, want)
	}
	rep.info("labels.query_us", median(q), "us")
	rep.info("labels.bytes_per_vertex", o.Stats().BytesPerVertex, "B")
}

// probeDynamic replays the op stream on a private dynamic.Engine: the
// serving writer's path (repair, ExportFrozen, routing.NewRouter and, with
// labels, labels.Update) one call at a time.
func probeDynamic(in layerInput, tr *tracer, rep *report) {
	parent, end := tr.start("probe.dynamic", 0)
	defer end()
	runtime.GC()
	_, e := tr.start("dynamic.New", parent)
	begin := time.Now()
	eng, err := dynamic.New(in.points, dynamic.Options{T: stretchT})
	rep.layerMetric("dynamic.new_s", time.Since(begin).Seconds(), "s")
	e()
	if !rep.check(err == nil, "dynamic.New: %v", err) {
		return
	}
	pts, _, _, sp := eng.ExportFrozen()
	var oracle *labels.Oracle
	if in.replayLabels {
		oracle = labels.Build(sp, labels.Options{})
	}
	s0 := eng.Stats()
	var repair, export, router, update []float64
	var allocs uint64
	rebuilds := 0
	for _, ops := range in.replay {
		// Allocations are counted inside the two timed calls only, so
		// the spans' own bookkeeping stays out of the count.
		_, e := tr.start("dynamic.repair", parent)
		m0 := readMem()
		begin := time.Now()
		eng.Begin()
		for _, op := range ops {
			if err := eng.Move(op.ID, op.Point); err != nil {
				rep.check(false, "dynamic.Move(%d): %v", op.ID, err)
			}
		}
		eng.Commit()
		el := time.Since(begin)
		allocs += readMem().mallocs - m0.mallocs
		repair = append(repair, us(el))
		e()
		_, e = tr.start("dynamic.ExportFrozen", parent)
		m0 = readMem()
		begin = time.Now()
		pts, _, _, sp = eng.ExportFrozen()
		el = time.Since(begin)
		allocs += readMem().mallocs - m0.mallocs
		export = append(export, us(el))
		e()
		_, e = tr.start("routing.NewRouter", parent)
		begin = time.Now()
		_, err := routing.NewRouter(sp, pts)
		router = append(router, us(time.Since(begin)))
		e()
		rep.check(err == nil, "routing.NewRouter: %v", err)
		if oracle != nil {
			stale := oracle.Stats().Stale
			_, e = tr.start("labels.Update", parent)
			begin = time.Now()
			oracle = oracle.Update(sp, eng.LastExportTouched())
			update = append(update, us(time.Since(begin)))
			e()
			if stale && !oracle.Stats().Stale {
				rebuilds++
			}
		}
	}
	s1 := eng.Stats()
	batches := float64(max(len(in.replay), 1))
	cand := s1.Candidates - s0.Candidates
	rep.layerMetric("dynamic.repair_us", median(repair), "us")
	rep.layerMetric("dynamic.export_us", median(export), "us")
	rep.layerMetric("routing.new_router_us", median(router), "us")
	rep.layerMetric("dynamic.allocs_per_batch", float64(allocs)/batches, "count")
	rep.layerMetric("dynamic.candidates_per_batch", float64(cand)/batches, "count")
	rep.layerMetric("dynamic.dirty_per_batch", float64(s1.DirtyVisited-s0.DirtyVisited)/batches, "count")
	rep.layerMetric("dynamic.accept_ratio", float64(s1.EdgesAdded-s0.EdgesAdded)/float64(max(cand, 1)), "ratio")
	rep.layerMetric("labels.rebuilds", float64(rebuilds), "count")
	if oracle != nil {
		rep.info("labels.update_p50_us", median(update), "us")
		rep.info("labels.update_max_ms", quantile(update, 1)/1e3, "ms")
	}
}

// quality is a spanner's output quality: exact stretch, maximum degree
// and weight over the MST's. A performance change must leave it
// unchanged.
type quality struct {
	stretch float64
	maxDeg  int
	weight  float64
}

func measureQuality(base, sp graph.Topology) quality {
	return quality{metrics.Stretch(base, sp), sp.MaxDegree(), metrics.WeightRatio(base, sp)}
}

// record reports q as the workload's metrics.* result.
func (q quality) record(rep *report) {
	rep.layerMetric("metrics.stretch", q.stretch, "ratio")
	rep.layerMetric("metrics.max_degree", float64(q.maxDeg), "count")
	rep.layerMetric("metrics.weight_ratio", q.weight, "ratio")
}

// print prints q under metrics.<label>.*.
func (q quality) print(rep *report, label string) {
	rep.info("metrics."+label+".stretch", q.stretch, "ratio")
	rep.info("metrics."+label+".max_degree", float64(q.maxDeg), "count")
	rep.info("metrics."+label+".weight_ratio", q.weight, "ratio")
}
