// Command egbench reproduces the paper's evaluation (§4): every table
// and figure has a subcommand that regenerates its rows on synthetic
// traces calibrated to Table 1.
//
// Usage:
//
//	egbench [-scale F] [-iters N] <table1|fig8|fig9|fig10|fig11|fig12|complexity|all>
//	egbench sim [-sim-seed N] [-sim-replicas N] [-sim-events N] [-sim-faults LIST]
//	egbench store [-store-events N] [-store-batch N] [-store-dir D]
//	egbench [-scale F] [-iters N] [-core-out FILE] [-core-traces LIST] core
//	egbench [-scale F] [-size-out FILE] [-size-traces LIST] size
//	egbench cluster [-cluster-docs N] [-cluster-writers N] [-cluster-rate F]
//	                [-cluster-duration D] [-cluster-out FILE]
//	egbench scale [-scale-conns LIST] [-scale-eps F] [-scale-ramp SPEC]
//	              [-scale-ramp-docs N] [-scale-ramp-conns N] [-scale-out FILE]
//
// (Flags must precede the subcommand name, except for sim, store and
// cluster, which take theirs after it too.) The core subcommand compares
// span-wise replay against the per-unit reference and writes
// BENCH_core.json; the committed baseline at the repo root records the
// before/after numbers for the span-wise replay change. The size
// subcommand compares the naive and compact columnar event-graph
// encodings and writes BENCH_size.json (see docs/FORMAT.md).
//
// -scale scales the trace sizes (1.0 = the paper's event counts;
// default 0.05 so a full run finishes in minutes). EXPERIMENTS.md
// records results and the scale they were measured at.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"egwalker/internal/bench"
	"egwalker/internal/causal"
	"egwalker/internal/colenc"
	"egwalker/internal/core"
	"egwalker/internal/listcrdt"
	"egwalker/internal/oplog"
	"egwalker/internal/ot"
	"egwalker/internal/rope"
	"egwalker/internal/trace"
)

// flags are the command line's: run parses them; stdout and stderr are
// where it writes its rows and its progress.
var (
	flags          = flag.NewFlagSet("egbench", flag.ContinueOnError)
	stdout, stderr io.Writer
)

var (
	scale   = flags.Float64("scale", 0.05, "trace size scale factor (1.0 = paper sizes)")
	iters   = flags.Int("iters", 3, "timing iterations per measurement")
	otMax   = flags.Int("ot-max-events", 200_000, "skip OT merge for traces larger than this (quadratic)")
	genOnly = flags.Bool("gen-only", false, "only generate traces and exit")
)

type workload struct {
	spec trace.Spec
	log  *oplog.Log
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var usage usageError
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(2)
	case errors.As(err, &usage):
		fmt.Fprintln(os.Stderr, "egbench:", err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "egbench:", err)
		os.Exit(1)
	}
}

// usageError is a command line run cannot act on: main exits 2 for it.
type usageError struct{ error }

func (u usageError) Unwrap() error { return u.error }

// run is egbench with the command line args, writing its rows to out and
// its progress to errOut.
func run(args []string, out, errOut io.Writer) error {
	stdout, stderr = out, errOut
	flags.SetOutput(errOut)
	if err := flags.Parse(args); err != nil {
		return usageError{err}
	}
	cmd := "all"
	if flags.NArg() > 0 {
		cmd = flags.Arg(0)
	}
	// These generate their own workloads, and take flags after their name
	// too: Parse stops at the first positional argument, so the rest is
	// parsed again.
	sub := map[string]func() error{"sim": runSim, "store": runStore, "cluster": runClusterBench, "core": runCore, "size": runSize, "scale": runScale}
	if fn, ok := sub[cmd]; ok {
		if err := flags.Parse(flags.Args()[1:]); err != nil {
			return usageError{err}
		}
		return fn()
	}
	ws, err := generate()
	if err != nil || *genOnly {
		return err
	}
	figures := map[string]func([]workload) error{
		"table1":     table1,
		"fig8":       fig8,
		"fig9":       fig9,
		"fig10":      fig10,
		"fig11":      fig11,
		"fig12":      fig12,
		"complexity": func([]workload) error { return complexity() },
	}
	if cmd == "all" {
		for _, name := range []string{"table1", "fig8", "fig9", "fig10", "fig11", "fig12", "complexity"} {
			if err := figures[name](ws); err != nil {
				return err
			}
		}
		return nil
	}
	fn, ok := figures[cmd]
	if !ok {
		return usageError{fmt.Errorf("unknown command %q", cmd)}
	}
	return fn(ws)
}

func generate() ([]workload, error) {
	var ws []workload
	for _, spec := range trace.All() {
		s := spec.Scale(*scale)
		start := time.Now()
		l, err := trace.Generate(s)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", s.Name, err)
		}
		fmt.Fprintf(stderr, "generated %s: %d events in %s\n", s.Name, l.Len(), bench.FmtDuration(time.Since(start)))
		ws = append(ws, workload{spec: s, log: l})
	}
	return ws, nil
}

func table1(ws []workload) error {
	fmt.Fprintf(stdout, "\n== Table 1: editing trace statistics (scale %.3f) ==\n", *scale)
	fmt.Fprintln(stdout, trace.Header())
	for _, w := range ws {
		st, err := trace.Measure(w.spec.Name, w.log)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, st.Row())
	}
	return nil
}

func fig8(ws []workload) error {
	fmt.Fprintf(stdout, "\n== Figure 8: CPU time to merge all events / reload the document (scale %.3f) ==\n", *scale)
	fmt.Fprintf(stdout, "%-4s %14s %14s %14s %14s %14s\n",
		"", "eg-merge", "eg-load", "ot-merge", "ot-load", "crdt-merge=load")
	for _, w := range ws {
		// Eg-walker merge: replay the full trace as if received remotely.
		egMerge := bench.TimedN(*iters, func() {
			if _, err := core.ReplayRope(w.log); err != nil {
				panic(err)
			}
		})
		// Eg-walker / OT cached load: load a file with the cached final
		// document (no replay), as Load does.
		text, err := core.ReplayRope(w.log)
		if err != nil {
			return err
		}
		data, err := colenc.SaveDocument(w.log, text, nil, colenc.Options{})
		if err != nil {
			return err
		}
		egLoad := bench.TimedN(*iters, func() {
			if _, err := colenc.LoadDocument(data); err != nil {
				panic(err)
			}
		})
		// OT merge.
		otMerge := time.Duration(-1)
		if w.log.Len() <= *otMax {
			otMerge = bench.TimedN(*iters, func() {
				if _, err := ot.ReplayText(w.log); err != nil {
					panic(err)
				}
			})
		}
		// Reference CRDT merge: apply the causally ordered ID-op stream.
		ops, err := listcrdt.FromLog(w.log)
		if err != nil {
			return err
		}
		crdtMerge := bench.TimedN(*iters, func() {
			d := listcrdt.New()
			if err := d.Merge(ops); err != nil {
				panic(err)
			}
		})
		otStr := "skipped"
		if otMerge >= 0 {
			otStr = bench.FmtDuration(otMerge)
		}
		fmt.Fprintf(stdout, "%-4s %14s %14s %14s %14s %14s\n", w.spec.Name,
			bench.FmtDuration(egMerge), bench.FmtDuration(egLoad),
			otStr, bench.FmtDuration(egLoad), bench.FmtDuration(crdtMerge))
	}
	fmt.Fprintln(stdout, "(CRDT load time equals CRDT merge time: the state must be rebuilt in memory.)")
	return nil
}

func fig9(ws []workload) error {
	fmt.Fprintf(stdout, "\n== Figure 9: Eg-walker merge with / without §3.5 optimisations (scale %.3f) ==\n", *scale)
	fmt.Fprintf(stdout, "%-4s %14s %14s %8s\n", "", "opt enabled", "opt disabled", "ratio")
	for _, w := range ws {
		on := bench.TimedN(*iters, func() {
			if _, err := core.ReplayRope(w.log); err != nil {
				panic(err)
			}
		})
		off := bench.TimedN(*iters, func() {
			if _, err := core.ReplayRopeNoOpt(w.log); err != nil {
				panic(err)
			}
		})
		fmt.Fprintf(stdout, "%-4s %14s %14s %7.2fx\n", w.spec.Name,
			bench.FmtDuration(on), bench.FmtDuration(off), float64(off)/float64(on))
	}
	return nil
}

func fig10(ws []workload) error {
	fmt.Fprintf(stdout, "\n== Figure 10: RAM while merging a trace (scale %.3f) ==\n", *scale)
	fmt.Fprintf(stdout, "%-4s %12s %12s %12s %12s %12s\n",
		"", "eg-peak", "eg-steady", "crdt-steady", "ot-peak", "ot-steady")
	for _, w := range ws {
		base := bench.HeapRetained()
		// Eg-walker: peak includes the transient tracker; steady state
		// is just the document text (event graph stays on disk).
		var doc *rope.Rope
		egPeak, _ := bench.MeasurePeak(func() {
			var err error
			doc, err = core.ReplayRope(w.log)
			if err != nil {
				panic(err)
			}
		})
		egSteadyAbs := bench.HeapRetained()
		egSteady := sub(egSteadyAbs, base)
		egPeakRel := sub(egPeak, base)
		_ = doc.Len()
		doc = nil

		// Reference CRDT: steady state retains the full record sequence.
		ops, err := listcrdt.FromLog(w.log)
		if err != nil {
			return err
		}
		base = bench.HeapRetained()
		crdt := listcrdt.New()
		if err := crdt.Merge(ops); err != nil {
			return err
		}
		ops = nil
		crdtSteady := sub(bench.HeapRetained(), base)
		_ = crdt.Len()
		crdt = nil

		// OT: peak includes branch replicas and memoized ops; steady
		// state is the document text.
		otPeakStr, otSteadyStr := "skipped", "skipped"
		if w.log.Len() <= *otMax {
			base = bench.HeapRetained()
			var otDoc string
			otPeak, _ := bench.MeasurePeak(func() {
				var err error
				otDoc, err = ot.ReplayText(w.log)
				if err != nil {
					panic(err)
				}
			})
			otSteady := sub(bench.HeapRetained(), base)
			_ = len(otDoc)
			otPeakStr = bench.FmtBytes(sub(otPeak, base))
			otSteadyStr = bench.FmtBytes(otSteady)
		}
		fmt.Fprintf(stdout, "%-4s %12s %12s %12s %12s %12s\n", w.spec.Name,
			bench.FmtBytes(egPeakRel), bench.FmtBytes(egSteady),
			bench.FmtBytes(crdtSteady), otPeakStr, otSteadyStr)
	}
	fmt.Fprintln(stdout, "(steady state for Eg-walker and OT is the document text; the event graph lives on disk.)")
	return nil
}

func fig11(ws []workload) error {
	fmt.Fprintf(stdout, "\n== Figure 11: file size, full history encoding (scale %.3f) ==\n", *scale)
	fmt.Fprintf(stdout, "%-4s %12s %12s %14s %12s\n", "", "egwalker", "+cached doc", "inserted text", "final doc")
	for _, w := range ws {
		text, err := core.ReplayRope(w.log)
		if err != nil {
			return err
		}
		plain := savedSize(w.log, nil, nil)
		cached := savedSize(w.log, text, nil)
		fmt.Fprintf(stdout, "%-4s %12s %12s %14s %12s\n", w.spec.Name,
			bench.FmtBytes(uint64(plain)), bench.FmtBytes(uint64(cached)),
			bench.FmtBytes(uint64(len(w.log.Content()))),
			bench.FmtBytes(uint64(text.UTF8Len())))
	}
	fmt.Fprintln(stdout, "(inserted text is the lower bound shown shaded in the paper's figure.)")
	return nil
}

func fig12(ws []workload) error {
	fmt.Fprintf(stdout, "\n== Figure 12: file size with deleted content omitted (scale %.3f) ==\n", *scale)
	fmt.Fprintf(stdout, "%-4s %12s %12s %11s %11s %7s %12s\n", "", "full", "pruned", "full B/ev", "pruned B/ev", "ratio", "final doc")
	for _, w := range ws {
		text, err := core.ReplayText(w.log)
		if err != nil {
			return err
		}
		deleted, err := core.Deleted(w.log)
		if err != nil {
			return err
		}
		full, pruned := savedSize(w.log, nil, nil), savedSize(w.log, nil, deleted)
		n := float64(w.log.Len())
		fmt.Fprintf(stdout, "%-4s %12s %12s %11.3f %11.3f %7.3f %12s\n", w.spec.Name,
			bench.FmtBytes(uint64(full)), bench.FmtBytes(uint64(pruned)), float64(full)/n, float64(pruned)/n,
			float64(pruned)/float64(full), bench.FmtBytes(uint64(len(text))))
	}
	fmt.Fprintln(stdout, "(final doc size is the lower bound; Yjs-style files store no deleted text.)")
	return nil
}

// savedSize is the size of l's file as Doc.Save writes it: with text as
// its cached document unless text is nil, less the characters of dropped.
func savedSize(l *oplog.Log, text *rope.Rope, dropped []causal.Span) int {
	data, err := colenc.SaveDocument(l, text, dropped, colenc.Options{})
	if err != nil {
		panic(err)
	}
	return len(data)
}

// complexity reproduces the §3.7 analysis: merging two branches of n
// events each with Eg-walker (O(n log n)) vs OT (quadratic).
func complexity() error {
	fmt.Fprintf(stdout, "\n== §3.7 complexity: merge two offline branches of n events each ==\n")
	fmt.Fprintf(stdout, "%8s %14s %14s\n", "n", "eg-walker", "ot")
	for _, n := range []int{1000, 2000, 4000, 8000, 16000} {
		l, err := twoBranchLog(n)
		if err != nil {
			return err
		}
		eg := bench.Timed(func() {
			if _, err := core.ReplayRope(l); err != nil {
				panic(err)
			}
		})
		o := bench.Timed(func() {
			if _, err := ot.ReplayText(l); err != nil {
				panic(err)
			}
		})
		fmt.Fprintf(stdout, "%8d %14s %14s\n", n, bench.FmtDuration(eg), bench.FmtDuration(o))
	}
	return nil
}

func twoBranchLog(n int) (*oplog.Log, error) {
	l := oplog.New()
	sp, err := l.AddInsert("base", nil, 0, "0123456789")
	if err != nil {
		return nil, err
	}
	base := causal.Frontier{sp.End - 1}
	head := base.Clone()
	for i := 0; i < n; i++ {
		s, err := l.AddInsert("a", head, i, "a")
		if err != nil {
			return nil, err
		}
		head = causal.Frontier{s.End - 1}
	}
	head = base.Clone()
	for i := 0; i < n; i++ {
		s, err := l.AddInsert("b", head, 10+i, "b")
		if err != nil {
			return nil, err
		}
		head = causal.Frontier{s.End - 1}
	}
	return l, nil
}

func sub(a, b uint64) uint64 {
	if a <= b {
		return 0
	}
	return a - b
}
