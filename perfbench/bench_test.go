package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSecondSeed runs every workload on seed 7, the second committed
// seed, so a claim tuned on the default seed can be re-checked on one
// that was not used while writing it. The run must pass its output
// checks, which include reproducing the committed virtual-time results.
func TestSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload in full")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "1"}, &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minCells*w.units || res.Attempted%w.units != 0 {
				t.Fatalf("result %+v", res)
			}
			for _, name := range []string{"units_per_s", "wall_s", "cpu_s", "peak_rss_mb", "setup_s",
				"sim_makespan_s", "sim_turnaround_p50_s", "sim_turnaround_p99_s"} {
				if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("metric %s = %+v", name, m)
				}
			}
		})
	}
}

// TestExpectedSeedsCommitted pins the committed seeds for every workload.
func TestExpectedSeedsCommitted(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []string{"42", "7"} {
			if _, ok := expected[w.name][seed]; !ok {
				t.Errorf("expected.json has no %s results for seed %s", w.name, seed)
			}
		}
	}
}

// TestClassify checks the layer attribution of representative stacks,
// leaf first.
func TestClassify(t *testing.T) {
	f := func(name, file string) frame { return frame{name: name, file: file} }
	cases := []struct {
		stack   []frame
		layer   string
		handoff bool
	}{
		{[]frame{f("runtime.mallocgc", "malloc.go"), f("repro/internal/core.(*UnitManager).buildView", "repro/internal/core/clusterview.go")}, "core.view", false},
		{[]frame{f("repro/internal/yarn.(*ResourceManager).Metrics", "repro/internal/yarn/resourcemanager.go")}, "yarn", false},
		{[]frame{f("runtime.chanrecv", "chan.go"), f("repro/internal/sim.(*Proc).Sleep", "repro/internal/sim/process.go")}, "sim", true},
		{[]frame{f("runtime.scanobject", "mgcmark.go"), f("runtime.gcBgMarkWorker", "mgc.go")}, "runtime.gc", false},
		{[]frame{f("runtime.findRunnable", "proc.go"), f("runtime.schedule", "proc.go")}, "sim", true},
		{[]frame{f("repro/internal/core.(*UnitManager).bindLoop", "repro/internal/core/unit.go")}, "core.bind", false},
		{[]frame{f("repro/internal/core.UnitKey", "repro/internal/core/cache.go")}, "cache", false},
		{[]frame{f("repro/internal/obs.(*Recorder).Record", "repro/internal/obs/obs.go")}, "obs", false},
		{[]frame{f("main.runCell", "repro/perfbench/main.go")}, "bench", false},
		{[]frame{f("runtime.copystack", "stack.go"), f("runtime.newstack", "stack.go"), f("repro/internal/core.(*UnitManager).settleFlight", "repro/internal/core/cache.go")}, "sim", false},
		{[]frame{f("runtime.nanotime", "time.go")}, "runtime.other", false},
	}
	for _, c := range cases {
		layer, handoff := classify(c.stack)
		if layer != c.layer || handoff != c.handoff {
			t.Errorf("classify(%v) = %s, %v; want %s, %v", c.stack, layer, handoff, c.layer, c.handoff)
		}
	}
}

// TestQuartiles matches Python's statistics.quantiles(n=4), the
// exclusive method: quantiles([1..10]) is [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, med, q3 := quartile(v, 1), median(v), quartile(v, 3); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v", q1, med, q3)
	}
}
