// Command saga-hadoop mirrors the paper's SAGA-Hadoop tool (Section
// III-A): it spawns a YARN or Spark cluster inside an allocation of a
// simulated HPC machine, submits a probe application, reports status,
// and tears the cluster down — the full Figure 2 sequence.
//
// Usage:
//
//	saga-hadoop [-machine stampede|wrangler] [-framework yarn|spark] [-nodes N] [-seed N] [-v]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/hpc"
	"repro/internal/saga"
	"repro/internal/sagahadoop"
	"repro/internal/sim"
	"repro/internal/yarn"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams explicit; it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("saga-hadoop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machine := fs.String("machine", "stampede", "machine profile (stampede, wrangler)")
	framework := fs.String("framework", "yarn", "framework plugin (yarn, spark)")
	nodes := fs.Int("nodes", 2, "allocation size in nodes")
	seed := fs.Int64("seed", 1, "simulation seed")
	verbose := fs.Bool("v", false, "trace simulation events")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	profile, ok := cluster.Profiles[*machine]
	if !ok {
		fmt.Fprintf(stderr, "saga-hadoop: unknown machine %q\n", *machine)
		return 2
	}
	eng := sim.NewEngine()
	if *verbose {
		eng.SetTrace(stderr)
	}
	m := cluster.New(eng, profile(*nodes+1))
	batch := hpc.NewBatch(m, hpc.DefaultConfig())
	js, err := saga.NewJobService("slurm://"+*machine, batch)
	if err != nil {
		fmt.Fprintln(stderr, "saga-hadoop:", err)
		return 1
	}

	failed := false
	fail := func(err error) {
		fmt.Fprintln(stderr, "saga-hadoop:", err)
		failed = true
	}
	eng.Spawn("saga-hadoop", func(p *sim.Proc) {
		fmt.Fprintf(stdout, "[%8s] submitting %s cluster job (%d nodes) to %s\n",
			p.Now(), *framework, *nodes, *machine)
		h, err := sagahadoop.Start(p, js, sagahadoop.Config{
			Framework: sagahadoop.Framework(*framework),
			Nodes:     *nodes,
			Seed:      *seed,
		})
		if err != nil {
			fail(err)
			return
		}
		env, err := h.WaitRunning(p)
		if err != nil {
			fail(err)
			return
		}
		fmt.Fprintf(stdout, "[%8s] cluster is %s\n", p.Now(), h.State())
		switch {
		case env.YARN != nil:
			met := env.YARN.Metrics()
			fmt.Fprintf(stdout, "[%8s] YARN up: %d nodes, %d MB, %d vcores\n",
				p.Now(), met.ActiveNodes, met.TotalMB, met.TotalVCores)
			app, err := env.YARN.Submit(p, yarn.AppDesc{
				Name: "wordcount-probe",
				Runner: func(ap *sim.Proc, am *yarn.AppMaster) {
					am.Register(ap)
					am.RequestContainers(ap, yarn.ResourceSpec{MemoryMB: 1024, VCores: 1}, 2, nil)
					var cs []*yarn.Container
					for i := 0; i < 2; i++ {
						c := am.NextContainer(ap)
						am.Launch(ap, c, func(cp *sim.Proc, cc *yarn.Container) {
							cp.Sleep(20e9) // 20s of map work
						})
						cs = append(cs, c)
					}
					for _, c := range cs {
						ap.Wait(c.Done)
					}
					am.Unregister(ap, yarn.StatusSucceeded)
				},
			})
			if err != nil {
				fail(err)
				return
			}
			fmt.Fprintf(stdout, "[%8s] submitted application %q\n", p.Now(), "wordcount-probe")
			st := app.Wait(p)
			fmt.Fprintf(stdout, "[%8s] application finished: %s\n", p.Now(), st)
		case env.Spark != nil:
			fmt.Fprintf(stdout, "[%8s] Spark up: %d cores\n", p.Now(), env.Spark.TotalCores())
			app, err := env.Spark.StartApp(p, "pyspark-probe")
			if err != nil {
				fail(err)
				return
			}
			for i := 0; i < 4; i++ {
				app.RunTask(p, 1, func(tp *sim.Proc, _ *cluster.Node) { tp.Sleep(10e9) })
			}
			app.Stop()
			fmt.Fprintf(stdout, "[%8s] spark application finished (%d tasks)\n", p.Now(), app.TasksRun)
		}
		h.Stop(p)
		fmt.Fprintf(stdout, "[%8s] cluster stopped\n", p.Now())
	})
	eng.Run()
	eng.Close()
	if failed {
		return 1
	}
	return 0
}
