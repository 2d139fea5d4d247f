package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"topoctl/internal/core"
	"topoctl/internal/dist"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/ubg"
)

const (
	paperAlpha = 0.75
	paperEps   = 0.5
	// paperSeed generates the suite's instances and seeds dist.Build's
	// Luby MIS. The suite is fixed, not drawn from --seed: per-instance
	// differences in build work (5-8% across seeds) would swamp the
	// timing bounds, and a fixed suite lets the counts be pinned.
	paperSeed   = 1
	setupRepsPB = 101 // suite generations per run (3 ms each); setup_s is their median
	// cyclesPerSecond fixes the work of a run: --seconds × cyclesPerSecond
	// + 5 timed cycles of about 0.85 s each on the reference box.
	cyclesPerSecond = 6
	// buildQuantile is the quantile of the per-cycle sums that the build
	// metrics report. Contention from other tenants only ever adds time,
	// and it comes in episodes of tens of seconds that moved whole-run
	// medians by 30%, so the metrics take the fast end of a long run.
	buildQuantile = 0.1
)

// paperInstances are the paper-build suite: 2-D n=1024 and 3-D n=512
// α-UBGs (ModelAll) at the generator's expected degree 8.
var paperInstances = []struct{ n, dim int }{{1024, 2}, {512, 3}}

// pinnedEdges are the suite's spanner edge counts: core then dist, for
// the 2-D and then the 3-D instance. A change that moves one changed the
// algorithm's output, not just its speed.
var pinnedEdges = [4]int{1845, 1844, 1421, 1423}

type paperInstance struct {
	inst   *ubg.Instance
	params core.Params
}

func generatePaper() ([]paperInstance, error) {
	out := make([]paperInstance, len(paperInstances))
	for i, c := range paperInstances {
		inst, err := ubg.GenerateConnected(
			geom.CloudConfig{Kind: geom.CloudUniform, N: c.n, Dim: c.dim, Seed: paperSeed},
			ubg.Config{Alpha: paperAlpha, Model: ubg.ModelAll, Seed: paperSeed},
		)
		if err != nil {
			return nil, err
		}
		p, err := core.NewParams(paperEps, paperAlpha, c.dim)
		if err != nil {
			return nil, err
		}
		out[i] = paperInstance{inst: inst, params: p}
	}
	return out, nil
}

// paperCycle is one pass over the suite.
type paperCycle struct {
	core, dist []time.Duration // per instance
	coreRes    []*core.Result
	distRes    []*dist.Result
}

// runCycle builds every instance with core.Build and dist.Build,
// collecting before each build so one build's garbage is not collected
// during the next.
func runCycle(suite []paperInstance, tr *tracer) (*paperCycle, error) {
	c := &paperCycle{}
	for _, pi := range suite {
		runtime.GC()
		_, e := tr.start("core.Build", 0)
		begin := time.Now()
		cr, err := core.Build(pi.inst.Points, pi.inst.G, core.Options{Params: pi.params})
		c.core = append(c.core, time.Since(begin))
		e()
		if err != nil {
			return nil, fmt.Errorf("core.Build: %w", err)
		}
		runtime.GC()
		_, e = tr.start("dist.Build", 0)
		begin = time.Now()
		dr, err := dist.Build(pi.inst.Points, pi.inst.G, dist.Options{Params: pi.params, Seed: paperSeed})
		c.dist = append(c.dist, time.Since(begin))
		e()
		if err != nil {
			return nil, fmt.Errorf("dist.Build: %w", err)
		}
		c.coreRes = append(c.coreRes, cr)
		c.distRes = append(c.distRes, dr)
	}
	return c, nil
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// edgeCounts returns the cycle's spanner edge counts, core then dist per
// instance.
func (c *paperCycle) edgeCounts() [4]int {
	return [4]int{c.coreRes[0].Spanner.M(), c.distRes[0].Spanner.M(), c.coreRes[1].Spanner.M(), c.distRes[1].Spanner.M()}
}

// cycleSums is one cycle's build times, summed over the suite.
type cycleSums struct {
	core, dist float64 // ms
	traced     bool
}

// timedCycles runs count cycles; every cycle must reproduce ref's
// spanner edge counts. With a tracer, every other cycle is traced and the
// rest run untraced, so the tracing overhead is measured within one pass.
func timedCycles(suite []paperInstance, count int, ref [4]int, tr *tracer, rep *report) (sums []cycleSums, builds int64, err error) {
	for i := range count {
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		c, err := runCycle(suite, t)
		if err != nil {
			return nil, 0, err
		}
		got := c.edgeCounts()
		rep.check(got == ref, "cycle edge counts %v differ from the first cycle's %v", got, ref)
		sums = append(sums, cycleSums{core: ms(sum(c.core)), dist: ms(sum(c.dist)), traced: t != nil})
		builds += int64(2 * len(suite))
	}
	return sums, builds, nil
}

// buildTimes returns the buildQuantile of the core, dist and whole
// cycle sums of the cycles whose traced flag is traced.
func buildTimes(sums []cycleSums, traced bool) (core, dist, cycle float64) {
	var cs, ds, ts []float64
	for _, s := range sums {
		if s.traced == traced {
			cs = append(cs, s.core)
			ds = append(ds, s.dist)
			ts = append(ts, s.core+s.dist)
		}
	}
	return quantile(cs, buildQuantile), quantile(ds, buildQuantile), quantile(ts, buildQuantile)
}

func paperBuild(cfg config, rep *report) error {
	var setups []float64
	var suite []paperInstance
	for range setupRepsPB {
		runtime.GC()
		begin := time.Now()
		var err error
		suite, err = generatePaper()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	rep.endToEnd("setup_s", median(setups), "s")
	rep.endToEnd("heap_mb", liveHeapMB(), "MB")

	// The first cycle is a warm-up; it also fixes the counts every timed
	// cycle must reproduce and the outputs that are checked.
	warm, err := runCycle(suite, nil)
	if err != nil {
		return err
	}
	ref := warm.edgeCounts()
	rep.check(ref == pinnedEdges, "spanner edge counts %v, pinned %v", ref, pinnedEdges)
	rep.text("spanner edges (core, dist) per instance: %v", ref)
	checkPaperQuality(suite, warm, rep)

	// Single builds spread by ±15-20% at GOMAXPROCS=2 and the host
	// drifts for tens of seconds at a time, so the timed metrics are a
	// low quantile over many cycles. A traced run traces every other
	// cycle and reports the untraced ones' times.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	cycles := cyclesPerSecond*cfg.seconds + 5
	mem0 := readMem()
	sums, builds, err := timedCycles(suite, cycles, ref, tr, rep)
	if err != nil {
		return err
	}
	mem1 := readMem()
	rep.ops(builds+int64(2*len(suite)), 0)
	coreMS, distMS, cycleMS := buildTimes(sums, false)
	rep.endToEnd("ops_per_s", float64(2*len(suite))/(cycleMS/1000), "1/s")
	rep.endToEnd("primary_ms", coreMS, "ms")
	rep.endToEnd("secondary_ms", distMS, "ms")
	rep.info("core_build_ms", coreMS, "ms")
	rep.info("dist_build_ms", distMS, "ms")
	rep.text("%d cycles of %d builds; per-cycle ms (core/dist) %s", cycles, 2*len(suite), fmtSums(sums))
	reportRuntime(rep, mem0, mem1, builds)
	reportPaperCounts(warm, rep)
	// The serving layers never run here.
	zeroLayers(rep, "service.", "labels.", "graph.", "routing.", "ubg.", "greedy.", "dynamic.")

	if !cfg.trace {
		return nil
	}
	p0 := coreMS
	p1, _, _ := buildTimes(sums, true)
	rep.info("trace.overhead_core_build_ms", p1-p0, "ms")
	rep.layerMetric("trace.overhead_pct", 100*(p1-p0)/p0, "%")
	return finishTrace(tr, rep, fmt.Sprintf("paper-build-seed%d.jsonl", cfg.seed))
}

// checkPaperQuality checks every spanner of the cycle against its
// instance: exact stretch at most 1+ε. The 2-D core spanner's quality is
// the workload's metrics.* result.
func checkPaperQuality(suite []paperInstance, c *paperCycle, rep *report) {
	for i, pi := range suite {
		name := fmt.Sprintf("%dd", paperInstances[i].dim)
		for _, x := range []struct {
			algo string
			sp   *graph.Graph
		}{{"core", c.coreRes[i].Spanner}, {"dist", c.distRes[i].Spanner}} {
			q := measureQuality(pi.inst.G, x.sp)
			q.print(rep, x.algo+"."+name)
			rep.check(q.stretch <= 1+paperEps+1e-9, "%s spanner of the %s instance: stretch %v > 1+ε", x.algo, name, q.stretch)
			if i == 0 && x.algo == "core" {
				q.record(rep)
			}
		}
	}
}

// reportPaperCounts records the work counters of one cycle, summed over
// the suite. They repeat exactly for a given seed.
func reportPaperCounts(c *paperCycle, rep *report) {
	var cs struct{ cand, cov, q, add, rm int }
	var rounds, msgs, words int64
	steps := map[string]int64{}
	for i := range c.coreRes {
		s := c.coreRes[i].Stats
		cs.cand += s.Candidates
		cs.cov += s.Covered
		cs.q += s.Queried
		cs.add += s.Added
		cs.rm += s.RemovedRedundant
		d := c.distRes[i]
		rounds += int64(d.Rounds)
		msgs += d.Messages
		words += d.Words
		for name, sc := range d.PerStep {
			// Steps are named "<kind>/<what>", except the gathers
			// ("phase/gather", "phase0/gather").
			kind, what, _ := strings.Cut(name, "/")
			if what == "gather" {
				kind = what
			}
			steps[kind] += sc.Messages
		}
	}
	rep.layerMetric("core.candidates", float64(cs.cand), "count")
	rep.layerMetric("core.covered", float64(cs.cov), "count")
	rep.layerMetric("core.queried", float64(cs.q), "count")
	rep.layerMetric("core.added", float64(cs.add), "count")
	rep.layerMetric("core.removed_redundant", float64(cs.rm), "count")
	rep.layerMetric("core.accept_ratio", float64(cs.add)/float64(max(cs.q, 1)), "ratio")
	rep.layerMetric("dist.rounds", float64(rounds), "count")
	rep.layerMetric("dist.messages", float64(msgs), "count")
	rep.layerMetric("dist.words", float64(words), "count")
	for _, step := range []string{"gather", "mis", "clustergraph", "update"} {
		rep.layerMetric("dist."+step+"_messages", float64(steps[step]), "count")
	}
}

func fmtSums(sums []cycleSums) string {
	parts := make([]string, len(sums))
	for i, c := range sums {
		parts[i] = fmt.Sprintf("%.1f/%.1f", c.core, c.dist)
	}
	return strings.Join(parts, " ")
}
