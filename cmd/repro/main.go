// Command repro regenerates the paper's evaluation figures on the
// simulated Stampede and Wrangler machines.
//
// Usage:
//
//	repro [-seed N] [-trials N] [-trace out.json] [-series out.jsonl] [-metrics addr] fig5|fig6|speedups|ablate-shuffle|ablate-amreuse|sched|elastic|data|dataelastic|dag|cache|scale|breakdown|all
//
// With -trace, every experiment cell runs under a flight recorder and
// the whole session exports as one Chrome trace-event JSON file,
// viewable in Perfetto (ui.perfetto.dev). With -series, the live
// cluster gauges sampled on every scheduling event export as JSONL.
//
// With -metrics, a live telemetry endpoint serves Prometheus text at
// http://<addr>/metrics and a JSON registry snapshot at /debug/pilot
// while the experiments run; every cell's accounting accumulates into
// the one registry. -linger keeps the endpoint (and process) up after
// the experiments finish so a scraper can collect the final state.
//
// The scale subcommand runs the engine-speed sweep (-scales picks the
// unit counts) and writes BENCH_scale.json, the artifact the CI
// regression gate compares against.
//
// -cpuprofile and -memprofile capture pprof profiles of the run —
// pair them with the scale subcommand to see where the bind loop's
// wall-clock goes at 10⁵ units.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/profiling"
	"repro/internal/sim"
	"repro/pilot"
)

func main() {
	seed := flag.Int64("seed", 42, "simulation seed (runs are deterministic per seed)")
	trials := flag.Int("trials", 3, "trials per Figure 5 bar")
	traceOut := flag.String("trace", "", "write every cell's flight-recorder stream as one Chrome trace-event JSON file")
	seriesOut := flag.String("series", "", "write every cell's live cluster gauges as JSON Lines")
	metricsAddr := flag.String("metrics", "", "serve live Prometheus text at http://<addr>/metrics and a JSON snapshot at /debug/pilot while experiments run")
	linger := flag.Duration("linger", 0, "keep the process (and -metrics endpoint) alive this long after the experiments finish")
	scalesFlag := flag.String("scales", "", "comma-separated unit counts for the scale sweep (default 100,1000,10000,100000)")
	scaleOut := flag.String("scale-out", "BENCH_scale.json", "output path for the scale sweep's benchmark document")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run (scale sweep included) to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the experiments finish to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repro [-seed N] [-trials N] [-trace out.json] [-series out.jsonl] [-metrics addr] fig5|fig6|speedups|ablate-shuffle|ablate-amreuse|sched|elastic|data|dataelastic|dag|cache|scale|breakdown|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()
	var tap *experiments.Tap
	if *traceOut != "" || *seriesOut != "" {
		tap = new(experiments.Tap)
		experiments.SetTap(tap)
	}
	var msrv *pilot.MetricsServer
	if *metricsAddr != "" {
		reg := pilot.NewMetricsRegistry()
		experiments.SetMetricsRegistry(reg)
		var err error
		msrv, err = pilot.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: -metrics %s: %v\n", *metricsAddr, err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Printf("serving metrics on http://%s/metrics (snapshot at /debug/pilot)\n\n", msrv.Addr())
	}
	known := cmd == "all"
	for _, name := range subcommands {
		known = known || cmd == name
	}
	if !known {
		flag.Usage()
		os.Exit(2)
	}
	r := &runner{w: os.Stdout, seed: *seed, trials: *trials, scales: *scalesFlag, scaleOut: *scaleOut}
	for _, name := range subcommands {
		if cmd != name && cmd != "all" {
			continue
		}
		if err := r.run(name); err != nil {
			fmt.Fprintf(os.Stderr, "repro %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if tap != nil {
		if err := writeTapOutputs(tap, *traceOut, *seriesOut); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
	}
	stopProfiles() // flush before any -linger idle time dilutes the CPU profile
	if *linger > 0 {
		fmt.Printf("lingering %s before exit\n", *linger)
		time.Sleep(*linger)
	}
}

// subcommands lists every experiment in the order "all" runs them.
var subcommands = []string{"fig5", "fig6", "speedups", "ablate-shuffle",
	"ablate-amreuse", "sched", "elastic", "data", "dataelastic", "dag",
	"cache", "scale", "breakdown"}

// runner runs experiments by subcommand name, writing each report to w.
// fig6 caches the Figure 6 result the fig6 and speedups reports share.
type runner struct {
	w        io.Writer
	seed     int64
	trials   int
	scales   string
	scaleOut string
	fig6     *experiments.Fig6Result
}

// run runs the named experiment and writes its report.
func (r *runner) run(name string) error {
	w, seed := r.w, r.seed
	switch name {
	case "fig5":
		res, err := experiments.RunFig5(r.trials, seed)
		if err != nil {
			return err
		}
		res.Write(w)
	case "fig6", "speedups":
		if r.fig6 == nil {
			res, err := experiments.RunFig6(seed)
			if err != nil {
				return err
			}
			r.fig6 = res
		}
		if name == "fig6" {
			r.fig6.Write(w)
		} else {
			r.fig6.WriteSpeedups(w)
		}
	case "ablate-shuffle":
		rows, err := experiments.RunShuffleAblation(seed)
		if err != nil {
			return err
		}
		experiments.WriteShuffleAblation(w, rows)
	case "ablate-amreuse":
		rows, err := experiments.RunAMReuseAblation(seed)
		if err != nil {
			return err
		}
		experiments.WriteAMReuseAblation(w, rows)
	case "sched":
		rows, err := experiments.RunSchedulerComparison(seed)
		if err != nil {
			return err
		}
		experiments.WriteSchedulerComparison(w, rows)
	case "elastic":
		rows, err := experiments.RunElasticComparison(seed)
		if err != nil {
			return err
		}
		experiments.WriteElasticComparison(w, rows)
	case "data":
		rows, err := experiments.RunStagingComparison(seed)
		if err != nil {
			return err
		}
		experiments.WriteStagingComparison(w, rows)
	case "dataelastic":
		rows, err := experiments.RunDataElasticComparison(seed)
		if err != nil {
			return err
		}
		experiments.WriteDataElasticComparison(w, rows)
	case "dag":
		rows, err := experiments.RunDAGComparison(seed)
		if err != nil {
			return err
		}
		experiments.WriteDAGComparison(w, rows)
		if seed == 42 {
			// The committed claim: at the reference seed, critical-path
			// ordering must beat FIFO on the skewed DAG.
			if err := experiments.CheckDAGComparison(rows); err != nil {
				return err
			}
			fmt.Fprintln(w, "dag assertions hold: critical-path starts the heavy chain first and wins on makespan")
		}
	case "cache":
		rows, err := experiments.RunCacheComparison(seed)
		if err != nil {
			return err
		}
		experiments.WriteCacheComparison(w, rows)
		if seed == 42 {
			// The committed claim: at the reference seed, the result cache
			// must collapse redundant submissions and win on makespan.
			if err := experiments.CheckCacheComparison(rows); err != nil {
				return err
			}
			fmt.Fprintln(w, "cache assertions hold: one execution per distinct job, redundant resubmission served entirely from cache, cached makespan wins")
		}
	case "scale":
		return r.scale()
	case "breakdown":
		return breakdown(w, seed)
	}
	return nil
}

// scale runs the engine-speed sweep and writes its benchmark document.
func (r *runner) scale() error {
	scales, err := parseScales(r.scales)
	if err != nil {
		return err
	}
	rows, err := experiments.RunScaleSweep(r.seed, scales)
	if err != nil {
		return err
	}
	experiments.WriteScaleSweep(r.w, rows)
	if err := experiments.CheckScaleSweep(rows, scales); err != nil {
		return err
	}
	f, err := os.Create(r.scaleOut)
	if err != nil {
		return err
	}
	if err := experiments.WriteScaleBenchJSON(f, rows); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(r.w, "wrote scale benchmarks (%d scales) to %s\n", len(rows), r.scaleOut)
	return nil
}

// startProfiles arms the optional pprof outputs. The returned stop is
// idempotent: main calls it as soon as the experiments finish (so a
// -linger window does not dilute the CPU profile) and again via defer.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "repro: -cpuprofile: %v\n", err)
			} else {
				fmt.Printf("wrote CPU profile to %s\n", cpuPath)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "repro: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "repro: -memprofile: %v\n", err)
			} else {
				fmt.Printf("wrote heap profile to %s\n", memPath)
			}
			f.Close()
		}
	}, nil
}

// parseScales parses the -scales flag ("100,1000,10000"); empty means
// the sweep's defaults.
func parseScales(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var scales []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -scales entry %q", part)
		}
		scales = append(scales, n)
	}
	return scales, nil
}

// writeTapOutputs exports the collected flight-recorder streams.
func writeTapOutputs(tap *experiments.Tap, tracePath, seriesPath string) error {
	write := func(path, what string, fn func(w io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", what, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d cells, %d events) to %s\n", what, tap.Cells(), tap.Events(), path)
		return nil
	}
	if tracePath != "" {
		if err := write(tracePath, "Chrome trace", tap.WriteChromeTrace); err != nil {
			return err
		}
	}
	if seriesPath != "" {
		if err := write(seriesPath, "gauge series", tap.WriteSeriesJSONL); err != nil {
			return err
		}
	}
	return nil
}

// breakdown prints the per-phase unit time decomposition for fork vs
// YARN launch paths on Stampede — where the Figure 5 inset seconds go.
// The decomposition is event-sourced: a flight recorder captures the
// run and the profile derives from its stream, so the printed numbers
// come from the same timeline -trace exports.
func breakdown(w io.Writer, seed int64) error {
	for _, sys := range []struct {
		label string
		short string
		mode  pilot.PilotMode
	}{
		{"RADICAL-Pilot (fork launch method)", "fork", pilot.ModeHPC},
		{"RADICAL-Pilot-YARN (YARN launch method)", "yarn", pilot.ModeYARN},
	} {
		env, err := experiments.NewEnv(experiments.Stampede, 3, seed)
		if err != nil {
			return err
		}
		env.Label = "breakdown/" + sys.short
		rec := env.Rec
		if rec == nil {
			rec = pilot.NewRecorder(env.Eng)
			env.Session.AttachRecorder(rec)
		}
		var units []*pilot.Unit
		var runErr error
		env.Eng.Spawn("driver", func(p *sim.Proc) {
			pm := pilot.NewPilotManager(env.Session)
			pl, err := pm.Submit(p, pilot.PilotDescription{
				Resource: "stampede", Nodes: 2, Runtime: 2 * time.Hour, Mode: sys.mode,
			})
			if err != nil {
				runErr = err
				return
			}
			if !pl.WaitState(p, pilot.PilotActive) {
				runErr = fmt.Errorf("pilot ended %v", pl.State())
				return
			}
			um, err := pilot.NewUnitManager(env.Session)
			if err != nil {
				runErr = err
				return
			}
			um.AddPilot(pl)
			descs := make([]pilot.ComputeUnitDescription, 16)
			for i := range descs {
				descs[i] = pilot.ComputeUnitDescription{
					Executable:        "/bin/task",
					Cores:             1,
					InputStagingBytes: 16 << 20,
					Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
						ctx.Node.Compute(bp, 60)
					},
				}
			}
			units, runErr = um.Submit(p, descs)
			if runErr != nil {
				return
			}
			um.WaitAll(p, units)
			ov := profiling.PilotProfile(pl)
			fmt.Fprintf(w, "%s\n", sys.label)
			fmt.Fprintf(w, "  pilot: queue wait %ss, agent startup %ss (hadoop spawn %ss)\n",
				metrics.Seconds(ov.QueueWait), metrics.Seconds(ov.AgentStartup), metrics.Seconds(ov.HadoopSpawn))
			events := rec.Events()
			prof, skipped := profiling.ProfileFromEvents(events)
			if skipped > 0 {
				runErr = fmt.Errorf("%d units did not finish", skipped)
				return
			}
			prof.Write(w)
			spans := profiling.SpansFromEvents(events)
			fmt.Fprintf(w, "  peak concurrency %d, core utilization %.0f%%\n\n",
				profiling.MaxConcurrency(spans),
				100*profiling.Utilization(spans, 16))
			pl.Cancel()
		})
		env.Eng.Run()
		env.Close()
		if runErr != nil {
			return runErr
		}
	}
	return nil
}
