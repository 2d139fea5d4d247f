// Command perfbench is topoctl's end-to-end benchmark. It boots the
// topology service in-process behind a loopback HTTP server and drives it
// with closed-loop clients (serve-hot, serve-cold, churn), or runs the
// paper's sequential and distributed spanner builders directly
// (paper-build). Every workload does a fixed amount of work, derived from
// --seconds, on inputs generated from --seed, and checks its outputs.
//
// The last line of standard output is one JSON object: the gated
// end-to-end metrics with --trace 0, the per-layer metrics of a separate
// traced run with --trace 1. The lines before it print every metric by
// name with its unit. README.md records why each workload exists and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

const (
	// defaultSeed is the development seed; heldOutSeed is never used
	// while tuning a change, and a claimed gain must hold on it too.
	defaultSeed = 1
	heldOutSeed = 2
)

// endToEnd and perLayer are the metrics of the JSON result line with
// their units, in BENCHMARK.json order. Every workload reports every one of them, so each
// is defined for all four workloads (README.md, "Metrics").
var endToEnd = []metricSpec{
	{"setup_s", "s"}, {"heap_mb", "MB"}, {"ops_per_s", "1/s"},
	{"primary_ms", "ms"}, {"secondary_ms", "ms"},
}

var perLayer = []metricSpec{
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.allocs_per_op", "count"},
	{"trace.overhead_pct", "%"},
	{"service.cache_hit_ratio", "ratio"}, {"labels.hit_ratio", "ratio"}, {"labels.rebuilds", "count"},
	{"graph.spanner_search_us", "us"}, {"graph.base_search_us", "us"}, {"graph.settled_per_search", "count"},
	{"routing.new_router_us", "us"}, {"ubg.build_frozen_s", "s"}, {"greedy.spanner_ms", "ms"},
	{"dynamic.new_s", "s"}, {"dynamic.repair_us", "us"}, {"dynamic.export_us", "us"},
	{"dynamic.allocs_per_batch", "count"}, {"dynamic.candidates_per_batch", "count"},
	{"dynamic.dirty_per_batch", "count"}, {"dynamic.accept_ratio", "ratio"},
	{"core.candidates", "count"}, {"core.covered", "count"}, {"core.queried", "count"},
	{"core.added", "count"}, {"core.removed_redundant", "count"}, {"core.accept_ratio", "ratio"},
	{"dist.rounds", "count"}, {"dist.messages", "count"}, {"dist.words", "count"},
	{"dist.gather_messages", "count"}, {"dist.mis_messages", "count"},
	{"dist.clustergraph_messages", "count"}, {"dist.update_messages", "count"},
	{"metrics.stretch", "ratio"}, {"metrics.max_degree", "count"}, {"metrics.weight_ratio", "ratio"},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
}

type workload func(cfg config, rep *report) error

var workloads = map[string]workload{
	"serve-hot":   serveHot.run,
	"serve-cold":  serveCold.run,
	"churn":       churn.run,
	"paper-build": paperBuild,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "serve-hot | serve-cold | churn | paper-build")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 10, "nominal timed-phase length; the work per run is a fixed multiple of it")
	trace := fs.Int("trace", 0, "1: traced run that reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep := newReport(stdout)
	rep.text("workload %s seed %d seconds %d trace %d GOMAXPROCS %d", *name, cfg.seed, cfg.seconds, *trace, runtime.GOMAXPROCS(0))
	if err := w(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := rep.finish(cfg.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// metricSpec is one metric of the JSON result line and its unit.
type metricSpec struct{ name, unit string }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and check outcomes and prints them.
type report struct {
	out       io.Writer
	e2e       map[string]metric
	layer     map[string]metric
	attempted int64
	failed    int64
	wrong     []string
}

func newReport(out io.Writer) *report {
	return &report{out: out, e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) text(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// info prints a metric that is not part of the JSON result line.
func (r *report) info(name string, v float64, unit string) {
	fmt.Fprintf(r.out, "%-34s %14.6g %s\n", name, v, unit)
}

// endToEnd records a gated end-to-end metric (also printed).
func (r *report) endToEnd(name string, v float64, unit string) {
	r.info(name, v, unit)
	r.e2e[name] = metric{v, unit}
}

// layerMetric records a per-layer metric of the JSON result (also printed).
func (r *report) layerMetric(name string, v float64, unit string) {
	r.info(name, v, unit)
	r.layer[name] = metric{v, unit}
}

// ops counts attempted and failed operations of the timed phase.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// check records a wrong answer when ok is false and returns ok; any
// wrong answer makes the run incorrect.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.wrong = append(r.wrong, msg)
		fmt.Fprintf(r.out, "# CHECK FAILED: %s\n", msg)
	}
	return ok
}

// zeroLayers reports 0 for every per-layer metric whose name starts with
// one of the prefixes: the layers a workload does not exercise.
func zeroLayers(r *report, prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.name, p) {
				r.layerMetric(m.name, 0, m.unit)
			}
		}
	}
}

func (r *report) correct() bool { return len(r.wrong) == 0 }

// finish prints failed_frac and the JSON result line. A failed
// operation makes the run incorrect.
func (r *report) finish(traced bool) error {
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	r.info("failed_frac", float64(r.failed)/float64(r.attempted), "1")
	r.check(r.failed == 0, "%d of %d operations failed", r.failed, r.attempted)
	got, want := r.e2e, endToEnd
	if traced {
		got, want = r.layer, perLayer
	}
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.name]
		if !ok {
			return fmt.Errorf("metric %s not reported", m.name)
		}
		if g.Unit != m.unit {
			return fmt.Errorf("metric %s reported in %s, want %s", m.name, g.Unit, m.unit)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, got})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(r.out, string(line))
	return err
}
