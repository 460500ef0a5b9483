package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

var processStart = time.Now()

// nowNs is monotonic nanoseconds since the process started.
func nowNs() int64 { return time.Since(processStart).Nanoseconds() }

// config is one run.
type config struct {
	spec      spec
	seed      uint64
	seconds   int // wall cap of the rounds phase
	trace     bool
	traceFile string
	rounds    int
	minRounds int
	setupReps int
	diag      diagSizes
	quiet     bool // tests: no report on stdout
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "seq, conc, diverged or live")
	seed := flag.Uint64("seed", 1, "input seed; seed 1 is checked against the committed hashes")
	seconds := flag.Int("seconds", 25, "how long the rounds are measured: once 25 rounds are done, no new round starts after it")
	trace := flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
	traceFile := flag.String("trace-file", "", "where the traced run writes its spans (default .out/trace-<workload>-<seed>.jsonl)")
	selfcheck := flag.Int("selfcheck", 0, "run every workload this many times on as many seeds, twice, in fresh processes, and apply the driver's acceptance test")
	pin := flag.Bool("pin", false, "print hashes_seed1.go for the current generator and exit")
	flag.Parse()
	if *pin {
		if err := printPins(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Two cores, stated rather than inherited; the collector's pacing too.
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)

	if *selfcheck > 0 {
		os.Exit(runSelfcheck(*selfcheck))
	}
	s, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want seq, conc, diverged or live)\n", *workload)
		os.Exit(2)
	}
	cfg := config{spec: s, seed: *seed, seconds: *seconds, trace: *trace != 0, traceFile: *traceFile,
		rounds: defaultRounds, minRounds: defaultMinRounds, setupReps: setupReps, diag: defaultDiagSizes}
	if cfg.trace {
		// Set-up time is an end-to-end metric; the traced run sets up once.
		cfg.rounds, cfg.minRounds, cfg.setupReps = tracedRounds, tracedMinRounds, 1
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report collects what a run prints before its result line.
type report struct {
	env       [][2]string
	phases    [][2]string
	stealFrac float64 // share of CPU time the hypervisor gave to others during the rounds
}

func (r *report) envf(key, format string, args ...any) {
	r.env = append(r.env, [2]string{key, fmt.Sprintf(format, args...)})
}

func (r *report) phase(name string, since time.Time) {
	r.phases = append(r.phases, [2]string{name, fmt.Sprintf("%.2fs", time.Since(since).Seconds())})
}

// run executes one workload and returns its result line.
func run(cfg config) (*result, error) {
	rep := &report{}
	describeMachine(rep)

	workRoot, err := makeWorkRoot(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workRoot)
	rep.envf("store_root", "in memory; directories, LOCK files and the per-layer store units under %s (%s)", workRoot, fsTypeOf(workRoot))

	t0 := time.Now()
	c, err := setup(cfg.spec, cfg.seed, workRoot, cfg.setupReps)
	if err != nil {
		return nil, err
	}
	rep.phase("setup", t0)
	if err := checkHashes(cfg, c, rep); err != nil {
		return nil, err
	}

	var res *result
	if cfg.trace {
		res, err = runTraced(cfg, c, workRoot, rep)
	} else {
		res, err = runEndToEnd(cfg, c, workRoot, rep)
	}
	if err != nil {
		return nil, err
	}
	if !cfg.quiet {
		printReport(cfg, rep, res)
	}
	return res, nil
}

// hardCap bounds the rounds phase whatever happens: the driver kills a run
// at 180 s.
const hardCap = 140 * time.Second

// runRounds runs cfg.rounds rounds of fn. Once cfg.minRounds rounds are done
// it stops as soon as the wall cap (-seconds) is spent: on a busy machine a
// run gives up rounds, never the minimum a floor needs. Past hardCap it
// fails instead of reporting a floor over too few rounds.
func runRounds(cfg config, rep *report, k *kernel, kernelNs *[]int64, fn func(r int) error) (int, error) {
	defer gcOff()()
	collect()
	start := time.Now()
	busy0, steal0 := cpuJiffies()
	done := 0
	for r := 0; r < cfg.rounds; r++ {
		if spent := time.Since(start); spent > hardCap || (done >= cfg.minRounds && spent > time.Duration(cfg.seconds)*time.Second) {
			break
		}
		ks := time.Now()
		k.run()
		*kernelNs = append(*kernelNs, time.Since(ks).Nanoseconds())
		if err := fn(r); err != nil {
			return done, err
		}
		done++
	}
	rep.phase("rounds", start)
	if busy1, steal1 := cpuJiffies(); busy1 > busy0 {
		rep.stealFrac = float64(steal1-steal0) / float64(busy1-busy0)
		rep.envf("steal", "%.1f %% of the machine's CPU time during the rounds went to other tenants (/proc/stat)", 100*rep.stealFrac)
	}
	rep.envf("rounds", "%d of %d (at least %d; no new round after %d s once those are done)", done, cfg.rounds, cfg.minRounds, cfg.seconds)
	if done < cfg.minRounds {
		return done, fmt.Errorf("%d rounds finished inside %v, need %d: the machine is too slow or too busy for a floor estimate", done, hardCap, cfg.minRounds)
	}
	return done, nil
}

// runEndToEnd is the untraced run: the end-to-end metrics.
func runEndToEnd(cfg config, c *corpusFixtures, workRoot string, rep *report) (*result, error) {
	t0 := time.Now()
	steady, err := steadyHeap(c)
	if err != nil {
		return nil, err
	}
	peak, err := mergePeakHeap(c)
	if err != nil {
		return nil, err
	}
	sc := newScript(c, workRoot, false)
	// One cold join per document, untimed: the bytes it puts on the wire.
	if err := sc.joinPhase(0, &timer{}, true); err != nil {
		return nil, err
	}
	rep.phase("counts", t0)

	t := &timer{}
	var kernelNs []int64
	redoRoot := filepath.Join(workRoot, "redo")
	_, err = runRounds(cfg, rep, newKernel(), &kernelNs, func(r int) error {
		if err := sc.round(r, t); err != nil {
			return err
		}
		err := c.redo(r, redoRoot)
		sc.maybeCollect()
		return err
	})
	if err != nil {
		return nil, err
	}
	var timings []*floorMetric
	for i, m := range sc.timings {
		if !timingNames[i].diag {
			timings = append(timings, m)
		}
	}
	if err := noteMachine(rep, kernelNs, timings); err != nil {
		return nil, err
	}
	rep.envf("timed_share", "%.1f s of the rounds' wall time was inside timed units", float64(t.timedNs)/1e9)

	res := &result{Metrics: make(map[string]metric)}
	for _, m := range timings {
		v, err := m.value(cfg.minRounds)
		if err != nil {
			return nil, err
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	var fileBytes int
	for _, fx := range c.docs {
		fileBytes += len(fx.file)
	}
	res.Metrics["setup_s"] = metric{float64(c.setupNs()) / 1e9, "s"}
	res.Metrics["steady_heap_bytes_per_event"] = metric{steady, "B/event"}
	res.Metrics["merge_peak_heap_bytes_per_event"] = metric{peak, "B/event"}
	res.Metrics["file_bytes_per_event"] = metric{float64(fileBytes) / float64(c.events), "B/event"}
	res.Metrics["wire_bytes_per_event"] = metric{float64(sc.wireBytes) / float64(c.events), "B/event"}
	res.Attempted, res.Failed = sc.attempted, sc.failed
	res.Correct = sc.failed == 0
	for _, f := range sc.failures {
		rep.envf("FAILED", "%s", f)
	}
	return res, nil
}

// noteMachine records the run's noise index and enforces the unit-length
// rule: a timed unit whose floor exceeds the cap is too long to find the
// machine quiet, and the run fails instead of reporting it.
func noteMachine(rep *report, kernelNs []int64, timings []*floorMetric) error {
	if len(kernelNs) > 0 {
		rep.envf("kernel", "floor %.2f ms, median %.2f ms (noise index %.2f)",
			float64(minOf(kernelNs))/1e6, float64(medianOf(kernelNs))/1e6, float64(medianOf(kernelNs))/float64(minOf(kernelNs)))
	}
	var worst int64
	var name string
	var floor, median float64
	for _, m := range timings {
		if w := m.maxUnitFloorNs(); w > worst {
			worst, name = w, m.name
		}
		// Some units run several times per round.
		perRound := 1.0
		if len(kernelNs) > 0 {
			perRound = float64(m.rounds()) / float64(len(kernelNs))
		}
		f, _ := m.floorNs(0)
		floor += float64(f) * perRound
		median += float64(m.medianNs()) * perRound
	}
	rep.envf("longest_unit", "%.2f ms at floor (%s; cap %.0f ms)", float64(worst)/1e6, name, unitCapNs/1e6)
	if floor > 0 {
		rep.envf("timed_work", "%.0f ms per round at floor, %.0f ms at median", floor/1e6, median/1e6)
	}
	if worst > unitCapNs {
		return fmt.Errorf("%s has a timed unit of %.1f ms at its floor; the cap is %.0f ms", name, float64(worst)/1e6, unitCapNs/1e6)
	}
	return nil
}

func makeWorkRoot(cfg config) (string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	root := filepath.Join(cwd, ".work", fmt.Sprintf("%s-%d-%d", cfg.spec.name, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(root); err != nil {
		return "", err
	}
	return root, os.MkdirAll(root, 0o777)
}

// fsTypeOf names the filesystem holding path, from /proc/mounts.
func fsTypeOf(path string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown filesystem"
	}
	best, typ := "", "unknown filesystem"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

func describeMachine(rep *report) {
	rep.envf("commit", "%s", commitID())
	rep.envf("go", "%s %s/%s", runtime.Version(), runtime.GOOS, runtime.GOARCH)
	rep.envf("gomaxprocs", "%d", runtime.GOMAXPROCS(0))
	rep.envf("nproc", "%d", runtime.NumCPU())
	rep.envf("gogc", "100 outside timed rounds, off inside (collections run by hand between documents)")
	rep.envf("cpu", "%s", cpuModel())
}

// cpuJiffies reads the machine-wide CPU line of /proc/stat: all jiffies
// and the stolen ones (time the hypervisor ran someone else while this
// machine wanted to run). Zeros where /proc/stat is missing.
func cpuJiffies() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, field := range f[1:] {
		var v uint64
		fmt.Sscan(field, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// commitID reads the checked-out commit without running git: the driver's
// checkout is not a repository, and then there is nothing to report.
func commitID() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for i := 0; i < 3; i++ {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			if !strings.HasPrefix(ref, "ref: ") {
				return ref
			}
			if b, err := os.ReadFile(filepath.Join(dir, ".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
				return strings.TrimSpace(string(b))
			}
			return ref
		}
		dir = filepath.Dir(dir)
	}
	return "not a git checkout"
}

// printReport prints the environment block, one line per metric, and the
// same again as JSON.
func printReport(cfg config, rep *report, res *result) {
	fmt.Printf("== egwalker bench: workload %s, seed %d, %s ==\n", cfg.spec.name, cfg.seed, map[bool]string{false: "end-to-end run", true: "traced run"}[cfg.trace])
	for _, kv := range rep.env {
		fmt.Printf("%-14s %s\n", kv[0], kv[1])
	}
	for _, kv := range rep.phases {
		fmt.Printf("wall %-9s %s\n", kv[0], kv[1])
	}
	fmt.Printf("wall %-9s %.2fs\n", "total", time.Since(processStart).Seconds())
	fmt.Printf("operations     %d attempted, %d failed\n", res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-44s %14.4f %s\n", name, m.Value, m.Unit)
	}
}
