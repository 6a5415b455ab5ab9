package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// endToEnd is the benchmark's end-to-end metrics with the share of the
// parent's median by which each may get worse before a change is a
// regression. BENCHMARK.json carries the same table for the driver; a test
// holds the two together. All are host-side and lower is better.
var endToEnd = []struct {
	name, unit string
	bound      float64
}{
	{"wall_s", "s", 0.25},
	{"alloc_mb", "MB", 0.02},
	{"allocs_k", "k", 0.02},
	{"peak_rss_mb", "MB", 0.10},
	{"setup_s", "s", 0.25},
}

// quartiles returns the three cut points of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// driver computes spreads with.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	var q [3]float64
	if ld < 2 {
		if ld == 1 {
			q = [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q := quartiles(v)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

// compareSets applies the driver's acceptance rule to two sets of runs of
// the same code: every metric's second median is not worse than the first by
// more than its bound, and every spread except set-up's stays within the
// bound. It returns one line per violation.
func compareSets(workload string, a, b map[string][]float64) []string {
	var bad []string
	for _, m := range endToEnd {
		qa, qb := quartiles(a[m.name]), quartiles(b[m.name])
		if qa[1] > 0 && (qb[1]-qa[1])/qa[1] > m.bound {
			bad = append(bad, fmt.Sprintf("%s/%s: median %.6g -> %.6g is worse by more than %.0f%%",
				workload, m.name, qa[1], qb[1], 100*m.bound))
		}
		if m.name == "setup_s" {
			continue
		}
		for set, v := range map[string][]float64{"A": a[m.name], "B": b[m.name]} {
			if sp := spread(v); sp > m.bound {
				bad = append(bad, fmt.Sprintf("%s/%s: set %s spread %.2f%% exceeds the %.0f%% bound",
					workload, m.name, set, 100*sp, 100*m.bound))
			}
		}
	}
	sort.Strings(bad)
	return bad
}

// runChild runs this binary once on one workload and returns its end-to-end
// metrics. One workload per process is the unit the driver measures, so the
// self-check measures the same unit.
func runChild(exe, workload string, seed int64, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stderr.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !r.Correct || r.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, r.Failed, r.Attempted)
	}
	vals := make(map[string]float64, len(r.Metrics))
	for name, m := range r.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}

// selfCheck is the A/A test: for every workload it makes n runs for set A
// and n for set B, interleaved A,B,B,A,..., each pair on its own seed, and
// fails if the two sets of runs of the same binary disagree by the rule a
// change would be judged with.
func selfCheck(n int, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	m := startMachine()
	var bad []string
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, set := range order {
				vals, err := runChild(exe, w.name, int64(i+1), seconds)
				if err != nil {
					return err
				}
				for name, v := range vals {
					sets[set][name] = append(sets[set][name], v)
				}
			}
		}
		for _, m := range endToEnd {
			for set, label := range []string{"A", "B"} {
				q := quartiles(sets[set][m.name])
				fmt.Printf("%-15s %-12s %s  q1 %-11.6g median %-11.6g q3 %-11.6g spread %5.2f%%  (bound %.0f%%, n=%d)\n",
					w.name, m.name, label, q[0], q[1], q[2], 100*spread(sets[set][m.name]), 100*m.bound, n)
			}
		}
		bad = append(bad, compareSets(w.name, sets[0], sets[1])...)
	}
	m.finish()
	if err := printJSON(map[string]any{"machine": m}); err != nil {
		return err
	}
	for _, line := range bad {
		fmt.Println("FAIL", line)
	}
	if len(bad) > 0 {
		return fmt.Errorf("self-check failed: %d violations", len(bad))
	}
	fmt.Println("self-check passed: both sets agree within every bound")
	return nil
}
