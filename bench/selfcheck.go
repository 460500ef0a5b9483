package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// -selfcheck K applies the driver's acceptance test to this machine. It runs
// every workload K times in fresh child processes, each time on another
// seed, and does so twice (seeds 1..K, then K+1..2K; the workload order
// alternates from run to run). Per end-to-end metric it prints, for both
// sets, the median and the spread (Q3 − Q1) ÷ median with the quartiles of
// Python's statistics.quantiles(v, n=4), the range (max − min) ÷ median, and
// how much worse the second median is than the first. A metric passes when
// both spreads stay inside its bound from BENCHMARK.json (set-up time is
// exempt from that, as in the driver) and the second median is not worse than
// the first by more than the bound. The last column says how many times the
// largest of the three fits into the bound.

type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// findBenchmarkJSON looks in the working directory and its parent (the
// program runs from bench/, the file sits at the repository root).
func findBenchmarkJSON() (*benchmarkFile, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &bf, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// selfcheckRun runs one workload once in a child process.
func selfcheckRun(exe, workload string, seed, seconds int) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}

func runSelfcheck(k int) int {
	bf, err := findBenchmarkJSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for run := 0; run < k; run++ {
			order := make([]string, 0, len(bf.Workloads))
			for _, w := range bf.Workloads {
				order = append(order, w.Name)
			}
			if run%2 == 1 {
				for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
					order[i], order[j] = order[j], order[i]
				}
			}
			for _, w := range order {
				res, err := selfcheckRun(exe, w, set*k+run+1, bf.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: selfcheck set %d run %d of %s: %v\n", set+1, run+1, w, err)
					return 1
				}
				if values[set][w] == nil {
					values[set][w] = make(map[string][]float64)
				}
				for name, m := range res.Metrics {
					values[set][w][name] = append(values[set][w][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %d run %d/%d %s done\n", set+1, run+1, k, w)
			}
		}
	}

	fmt.Printf("# Selfcheck: two sets of %d runs per workload (seeds 1..%d and %d..%d), fresh processes, %d s each\n\n", k, k, k+1, 2*k, bf.RunSeconds)
	fmt.Printf("Machine: %s, %d CPUs, GOMAXPROCS 2.\n\n", cpuModel(), runtime.NumCPU())
	fmt.Println("iqr = (Q3 − Q1) ÷ median and range = (max − min) ÷ median over a set's runs; shift = second median ÷ first − 1, positive when the second is worse. A metric passes when both iqr and the shift stay inside its bound (`setup_s`: the shift only); margin = bound ÷ the largest of them.")
	bad := 0
	for _, w := range bf.Workloads {
		fmt.Printf("\n## %s\n\n", w.Name)
		fmt.Println("| metric | unit | median 1 | iqr 1 | range 1 | median 2 | iqr 2 | range 2 | shift | bound | margin | ok |")
		fmt.Println("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---|")
		for _, m := range bf.EndToEnd {
			a, b := sorted(values[0][w.Name][m.Name]), sorted(values[1][w.Name][m.Name])
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("| %s | %s | missing | | | | | | | %.3f | | NO |\n", m.Name, m.Unit, m.Bound)
				bad++
				continue
			}
			medA, medB := medianSorted(a), medianSorted(b)
			shift := medB/medA - 1
			if m.Better == "higher" {
				shift = -shift
			}
			worst := max(shift, 0)
			if m.Name != "setup_s" {
				worst = max(worst, iqrShare(a, medA), iqrShare(b, medB))
			}
			ok := "yes"
			if worst > m.Bound {
				ok = "NO"
				bad++
			}
			margin := "—"
			if worst > 0 {
				margin = fmt.Sprintf("%.1f×", m.Bound/worst)
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %.4f | %.4f | %.4f | %.4f | %+.4f | %.3f | %s | %s |\n", m.Name, m.Unit,
				medA, iqrShare(a, medA), (a[len(a)-1]-a[0])/medA, medB, iqrShare(b, medB), (b[len(b)-1]-b[0])/medB, shift, m.Bound, margin, ok)
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d metrics fail the driver's test.\n", bad)
		return 1
	}
	fmt.Println("\nEvery metric passes the driver's test.")
	return 0
}

func sorted(v []float64) []float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c
}

func medianSorted(v []float64) float64 {
	if len(v)%2 == 0 {
		return (v[len(v)/2-1] + v[len(v)/2]) / 2
	}
	return v[len(v)/2]
}

// iqrShare is (Q3 − Q1) ÷ median with the quartiles of Python's
// statistics.quantiles(v, n=4) (the exclusive method); v is sorted.
func iqrShare(v []float64, med float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q := func(p float64) float64 {
		pos := p * float64(len(v)+1)
		i := int(pos)
		switch {
		case i < 1:
			return v[0]
		case i >= len(v):
			return v[len(v)-1]
		}
		return v[i-1] + (pos-float64(i))*(v[i]-v[i-1])
	}
	return (q(0.75) - q(0.25)) / med
}
