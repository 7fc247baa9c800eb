// Command radical-pilot runs a pilot workload described in JSON against
// a simulated machine, reporting the state timeline and timing metrics —
// the simulation-side equivalent of a RADICAL-Pilot script.
//
// Usage:
//
//	radical-pilot [-f workload.json] [-v]
//
// With no -f, a built-in demo workload runs (16 single-core 60 s tasks
// under a 2-node YARN pilot on Wrangler). The JSON schema:
//
//	{
//	  "machine": "wrangler",       // stampede | wrangler
//	  "mode": "yarn",              // hpc | yarn | spark
//	  "mode2": false,              // connect to dedicated cluster (yarn)
//	  "scheduler": "round-robin",  // round-robin | least-loaded | backfill | locality
//	  "nodes": 2,
//	  "runtime_min": 120,
//	  "units": 16,
//	  "unit_cores": 1,
//	  "unit_seconds": 60,
//	  "seed": 42
//	}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/pilot"
)

type workload struct {
	Machine     string `json:"machine"`
	Mode        string `json:"mode"`
	Mode2       bool   `json:"mode2"`
	Scheduler   string `json:"scheduler"` // unit-scheduling policy; empty = round-robin
	Nodes       int    `json:"nodes"`
	RuntimeMin  int    `json:"runtime_min"`
	Units       int    `json:"units"`
	UnitCores   int    `json:"unit_cores"`
	UnitSeconds int    `json:"unit_seconds"`
	Seed        int64  `json:"seed"`
}

func defaultWorkload() workload {
	return workload{
		Machine: "wrangler", Mode: "yarn", Nodes: 2, RuntimeMin: 120,
		Units: 16, UnitCores: 1, UnitSeconds: 60, Seed: 42,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams explicit; it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("radical-pilot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("f", "", "workload description (JSON); empty runs the demo workload")
	verbose := fs.Bool("v", false, "trace simulation events")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	wl := defaultWorkload()
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(stderr, "radical-pilot:", err)
			return 1
		}
		if err := json.Unmarshal(data, &wl); err != nil {
			fmt.Fprintln(stderr, "radical-pilot: parsing workload:", err)
			return 1
		}
	}
	// Any backend registered with the pilot package is a valid mode, and
	// any registered unit scheduler a valid policy (empty = round-robin).
	pm := pilot.PilotMode(wl.Mode)
	if !slices.Contains(pilot.Backends(), wl.Mode) {
		fmt.Fprintf(stderr, "radical-pilot: unknown mode %q (registered: %s)\n",
			wl.Mode, strings.Join(pilot.Backends(), ", "))
		return 2
	}
	if wl.Scheduler != "" && !slices.Contains(pilot.UnitSchedulers(), wl.Scheduler) {
		fmt.Fprintf(stderr, "radical-pilot: unknown scheduler %q (registered: %s)\n",
			wl.Scheduler, strings.Join(pilot.UnitSchedulers(), ", "))
		return 2
	}
	env, err := experiments.NewEnv(experiments.MachineName(wl.Machine), wl.Nodes+1, wl.Seed)
	if err != nil {
		fmt.Fprintln(stderr, "radical-pilot:", err)
		return 1
	}
	if *verbose {
		env.Eng.SetTrace(stderr)
		env.Session.AttachRecorder(stateLines(env.Eng, stderr))
	}
	failed := false
	env.Eng.Spawn("driver", func(p *sim.Proc) {
		pmgr := pilot.NewPilotManager(env.Session)
		pl, err := pmgr.Submit(p, pilot.PilotDescription{
			Resource:         wl.Machine,
			Nodes:            wl.Nodes,
			Runtime:          time.Duration(wl.RuntimeMin) * time.Minute,
			Mode:             pm,
			ConnectDedicated: wl.Mode2,
		})
		if err != nil {
			fmt.Fprintln(stderr, "radical-pilot:", err)
			failed = true
			return
		}
		fmt.Fprintf(stdout, "[%10s] pilot submitted: %s on %s (%d nodes, mode %s)\n",
			p.Now(), pl.ID, wl.Machine, wl.Nodes, wl.Mode)
		if !pl.WaitState(p, pilot.PilotActive) {
			fmt.Fprintf(stderr, "radical-pilot: pilot ended %v\n", pl.State())
			failed = true
			return
		}
		fmt.Fprintf(stdout, "[%10s] pilot active: queue wait %s, agent startup %s\n",
			p.Now(), metrics.Seconds(pl.QueueWait()), metrics.Seconds(pl.AgentStartup()))
		if pl.HadoopSpawnTime > 0 {
			fmt.Fprintf(stdout, "[%10s] hadoop cluster spawned in %s\n", p.Now(), metrics.Seconds(pl.HadoopSpawnTime))
		}
		um, err := pilot.NewUnitManager(env.Session, pilot.WithScheduler(wl.Scheduler))
		if err != nil {
			fmt.Fprintln(stderr, "radical-pilot:", err)
			failed = true
			return
		}
		um.AddPilot(pl)
		descs := make([]pilot.ComputeUnitDescription, wl.Units)
		for i := range descs {
			descs[i] = pilot.ComputeUnitDescription{
				Name:       fmt.Sprintf("task-%03d", i),
				Executable: "/bin/task",
				Cores:      wl.UnitCores,
				Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
					ctx.Node.Compute(bp, float64(wl.UnitSeconds))
				},
			}
		}
		units, err := um.Submit(p, descs)
		if err != nil {
			fmt.Fprintln(stderr, "radical-pilot:", err)
			failed = true
			return
		}
		fmt.Fprintf(stdout, "[%10s] %d units submitted\n", p.Now(), len(units))
		um.WaitAll(p, units)
		var startup, ttc metrics.Sample
		done := 0
		for _, u := range units {
			if u.State() == pilot.UnitDone {
				done++
				startup.Add(u.StartupTime())
				ttc.Add(u.TimeToCompletion())
			} else {
				fmt.Fprintf(stderr, "radical-pilot: unit %s: %v (%v)\n", u.ID, u.State(), u.Err)
			}
		}
		fmt.Fprintf(stdout, "[%10s] %d/%d units done; unit startup mean %ss (max %ss); time-to-completion mean %ss\n",
			p.Now(), done, len(units),
			metrics.Seconds(startup.Mean()), metrics.Seconds(startup.Max()), metrics.Seconds(ttc.Mean()))
		pl.Cancel()
		failed = failed || done != len(units)
	})
	env.Eng.Run()
	env.Close()
	if failed {
		return 1
	}
	return 0
}

// stateLines returns a recorder that prints every unit and pilot state
// transition to w in the engine trace's line format, so -v shows the
// unit and pilot timelines next to the engine's own lines.
func stateLines(eng *sim.Engine, w io.Writer) *pilot.Recorder {
	rec := pilot.NewRecorder(eng)
	rec.OnRecord(func(ev pilot.TraceEvent) {
		switch ev.Kind {
		case pilot.EventUnitState:
			msg := ev.State
			if ev.State == pilot.UnitFailed.String() {
				msg += ": " + ev.Detail
			}
			fmt.Fprintf(w, "[%12s] unit %s -> %s\n", ev.At, ev.Unit, msg)
		case pilot.EventPilotState:
			fmt.Fprintf(w, "[%12s] pilot %s -> %s\n", ev.At, ev.Pilot, ev.State)
		}
	})
	return rec
}
