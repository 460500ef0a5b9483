package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"egwalker/internal/bench"
	"egwalker/internal/sim"
)

// The sim subcommand runs internal/sim scenarios as benchmarks: the
// same deterministic virtual network the tests use, at whatever scale
// the flags ask for, with the convergence oracle verifying the result
// before any numbers are reported. Usage:
//
//	egbench sim [-sim-seed N] [-sim-replicas N] [-sim-events N] [-sim-faults all|none|latency,drop,dup,partition,crash]

var (
	simSeed     = flags.Int64("sim-seed", 1, "simulation seed")
	simReplicas = flags.Int("sim-replicas", 8, "number of replicas")
	simEvents   = flags.Int("sim-events", 2000, "total local edits to generate")
	simFaults   = flags.String("sim-faults", "all", "fault modes: all, none, or comma list of latency,drop,dup,partition,crash")
	simNoOracle = flags.Bool("sim-no-oracle", false, "skip the convergence oracle (time the network only)")
)

func parseFaults(s string) (sim.Faults, error) {
	switch s {
	case "all":
		return sim.Faults{Latency: true, Drop: true, Duplicate: true, Partition: true, CrashRestart: true}, nil
	case "none", "":
		return sim.Faults{}, nil
	}
	var f sim.Faults
	for _, mode := range strings.Split(s, ",") {
		switch mode {
		case "latency":
			f.Latency = true
		case "drop":
			f.Drop = true
		case "dup":
			f.Duplicate = true
		case "partition":
			f.Partition = true
		case "crash":
			f.CrashRestart = true
		case "": // tolerate stray commas
		default:
			return f, fmt.Errorf("unknown fault mode %q", mode)
		}
	}
	return f, nil
}

func runSim() error {
	faults, err := parseFaults(*simFaults)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		Seed:       *simSeed,
		Replicas:   *simReplicas,
		Events:     *simEvents,
		Faults:     faults,
		SkipOracle: *simNoOracle,
	}
	if faults.CrashRestart {
		dir, err := os.MkdirTemp("", "egbench-sim-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.PersistDir = dir
	}
	fmt.Fprintf(stdout, "\n== sim: %d replicas, %d events, seed %d, faults %s ==\n",
		*simReplicas, *simEvents, *simSeed, *simFaults)
	start := time.Now()
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	st := res.Stats
	fmt.Fprintf(stdout, "%-22s %s\n", "wall time", bench.FmtDuration(elapsed))
	fmt.Fprintf(stdout, "%-22s %d (%.0f events/s)\n", "events converged", res.Docs[0].NumEvents(),
		float64(res.Docs[0].NumEvents())/elapsed.Seconds())
	fmt.Fprintf(stdout, "%-22s %d\n", "virtual ticks", st.Ticks)
	fmt.Fprintf(stdout, "%-22s %d sent, %d delivered\n", "message batches", st.Messages, st.Delivered)
	fmt.Fprintf(stdout, "%-22s %d dropped, %d retransmitted, %d duplicated, %d parked\n",
		"fault injections", st.Dropped, st.Retransmits, st.Duplicates, st.Parked)
	fmt.Fprintf(stdout, "%-22s %d\n", "partition windows", st.Partitions)
	if faults.CrashRestart {
		fmt.Fprintf(stdout, "%-22s %d (replayed %d events from disk)\n", "crash-restarts", st.Crashes, st.ReplayedEvents)
	}
	fmt.Fprintf(stdout, "%-22s %d runes\n", "final document", len([]rune(res.Text)))
	if *simNoOracle {
		fmt.Fprintf(stdout, "%-22s skipped\n", "convergence oracle")
	} else {
		fmt.Fprintf(stdout, "%-22s passed (%d replicas, reference replay, listcrdt, save/load, fork/merge)\n",
			"convergence oracle", len(res.Docs))
	}
	return nil
}
