package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// exactCounts are the per-layer counts a later change may rest a claim
// on: they must repeat exactly for a given seed.
var exactCounts = []string{
	"core.candidates", "core.covered", "core.queried", "core.added", "core.removed_redundant",
	"dist.rounds", "dist.messages", "dist.words", "dist.gather_messages",
	"dist.mis_messages", "dist.clustergraph_messages", "dist.update_messages",
	"dynamic.candidates_per_batch", "dynamic.dirty_per_batch",
	"graph.settled_per_search", "labels.rebuilds",
}

// traced runs the benchmark command in-process as a traced run of one
// workload at --seconds 1 and returns its per-layer metrics.
func traced(t *testing.T, workload string) map[string]metric {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", strconv.Itoa(defaultSeed), "--seconds", "1", "--trace", "1"}
	if code := run(args, &out, io.Discard); code != 0 {
		t.Fatalf("%v exited %d:\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct bool
		Metrics map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%v: not correct", args)
	}
	return res.Metrics
}

// TestCountsRepeat is the exact-count check: two invocations of each
// workload's traced run with the same seed report identical counts.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's traced run twice")
	}
	for _, w := range []string{"serve-hot", "serve-cold", "churn", "paper-build"} {
		t.Run(w, func(t *testing.T) {
			a, b := traced(t, w), traced(t, w)
			for _, name := range exactCounts {
				ma, ok := a[name]
				if !ok {
					t.Errorf("%s not reported", name)
					continue
				}
				if mb := b[name]; ma != mb {
					t.Errorf("%s: %v then %v", name, ma.Value, mb.Value)
				}
			}
			// Each workload must pin something: the counts of the layers
			// it exercises are not zero.
			pinned := map[string]string{
				"serve-hot": "graph.settled_per_search", "serve-cold": "graph.settled_per_search",
				"churn": "labels.rebuilds", "paper-build": "dist.messages",
			}[w]
			if a[pinned].Value == 0 {
				t.Errorf("%s is 0; the count pins nothing", pinned)
			}
		})
	}
}

// TestBenchmarkSpec checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports.
func TestBenchmarkSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	specs := func(xs []struct{ Name, Unit string }) []metricSpec {
		var out []metricSpec
		for _, x := range xs {
			out = append(out, metricSpec{x.Name, x.Unit})
		}
		return out
	}
	if got := specs(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", got, endToEnd)
	}
	if got := specs(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer %v, program reports %v", got, perLayer)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
