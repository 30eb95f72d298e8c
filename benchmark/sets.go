package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// contractLine is the last line of a run's standard output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runChild runs one workload in a fresh process (this same binary) and
// returns its output and parsed contract line. The child is waited for.
func runChild(w workload, seed int64, seconds float64, traced bool) (string, *contractLine, error) {
	self, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return string(out), nil, fmt.Errorf("%s (seed %d, trace %s): %w", w.name, seed, t, err)
	}
	body, last := cutLastLine(out)
	var line contractLine
	if err := json.Unmarshal(last, &line); err != nil {
		return string(out), nil, fmt.Errorf("%s: last line is not the result object: %w", w.name, err)
	}
	return string(body), &line, nil
}

// cutLastLine splits output into everything before its last line, and that
// line.
func cutLastLine(out []byte) (body, last []byte) {
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n') // -1 when there is only one line
	return out[:i+1], out[i+1:]
}

// runSets runs `sets` full sets: every workload, each in a fresh process,
// untraced (end-to-end metrics) and/or traced (per-layer metrics) as `which`
// says (-1 both, 0 untraced, 1 traced). Set i uses seed+i. One set prints each
// run's full report; more print one line per run and then, per workload and
// metric, the median, quartiles, spread (IQR ÷ median — what the bounds in
// BENCHMARK.json are set against) and worst deviation from the median.
func runSets(sets int, seed int64, seconds float64, which int) error {
	if sets < 1 {
		return fmt.Errorf("-repeat must be at least 1")
	}
	var modes []bool
	if which != 1 {
		modes = append(modes, false)
	}
	if which != 0 {
		modes = append(modes, true)
	}
	// values[workload][traced][metric] collects one value per set.
	type key struct {
		w      string
		traced bool
	}
	values := make(map[key]map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < sets; i++ {
		for _, w := range workloads {
			for _, traced := range modes {
				body, line, err := runChild(w, seed+int64(i), seconds, traced)
				if err != nil {
					os.Stdout.WriteString(body)
					return err
				}
				if sets == 1 {
					os.Stdout.WriteString(body)
				} else {
					fmt.Printf("set %d  %-15s traced=%-5v attempted %7d failed %d%s\n",
						i+1, w.name, traced, line.Attempted, line.Failed, noisyMark(body))
				}
				k := key{w.name, traced}
				if values[k] == nil {
					values[k] = make(map[string][]float64)
				}
				for name, m := range line.Metrics {
					values[k][name] = append(values[k][name], m.Value)
					units[name] = m.Unit
				}
			}
		}
	}
	if sets == 1 {
		return nil
	}
	for _, w := range workloads {
		for _, traced := range modes {
			k := key{w.name, traced}
			fmt.Printf("\n%s  traced=%v  over %d sets (seeds %d..%d)\n", w.name, traced, sets, seed, seed+int64(sets)-1)
			fmt.Printf("  %-36s %14s %14s %14s %8s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "worst", "unit")
			for _, name := range sortedKeys(values[k]) {
				v := values[k][name]
				q1, q3 := quartiles(v)
				fmt.Printf("  %-36s %14.4f %14.4f %14.4f %7.1f%% %7.1f%%  %s\n",
					name, median(v), q1, q3, 100*spread(v), 100*worstDeviation(v), units[name])
			}
		}
	}
	return nil
}

func noisyMark(body string) string {
	if strings.Contains(body, "NOISY:") {
		return "  NOISY"
	}
	return ""
}
