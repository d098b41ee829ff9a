package main

// Repeatability mode: the selected workloads run n times, each run in a
// fresh process exactly as the benchmark driver starts them, and the n
// values of every end-to-end metric are reduced to median, quartiles and
// relative spread. Two sets that disagree by more than a metric's bound —
// or more sets whose interquartile spread exceeds it — fail the command.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

func runRepeat(selected []workload, n int, seed, seedStep int64, seconds int, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// values[workload][metric] holds one value per set.
	values := map[string]map[string][]float64{}
	code := 0
	for set := 0; set < n; set++ {
		for _, w := range selected {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed+int64(set)*seedStep, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0", "-out", outDir)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, io.Discard
			runErr := cmd.Run()
			res, err := lastResult(&out)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: set %d %s: %v (%v)\n", set+1, w.Name, err, runErr)
				return 1
			}
			if runErr != nil || !res.Correct || res.Failed > 0 {
				fmt.Fprintf(stderr, "benchmark: set %d %s: correct=%v failed=%d/%d (%v)\n",
					set+1, w.Name, res.Correct, res.Failed, res.Attempted, runErr)
				code = 1
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], v.Value)
			}
			fmt.Fprintf(stderr, "set %d/%d %s done\n", set+1, n, w.Name)
		}
	}

	fmt.Fprintf(stdout, "| workload | metric | unit | median | q1 | q3 | spread (q3-q1)/median | max disagreement | bound |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range selected {
		for _, def := range endToEnd {
			vals := values[w.Name][def.Name]
			if len(vals) == 0 {
				continue
			}
			med := median(vals)
			q1, q3 := med, med
			if len(vals) >= 2 {
				q1, _, q3 = quartiles(vals)
			}
			spread := ratio(q3-q1, med)
			worst := ratio(percentile(vals, 1)-percentile(vals, 0), med)
			// Two sets are judged by their disagreement; more than two as
			// the driver judges ten runs, by the interquartile spread.
			verdict, judged := "", spread
			if len(vals) == 2 {
				judged = worst
			}
			if judged > def.Bound {
				verdict = " EXCEEDED"
				code = 1
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.6g | %.6g | %.6g | %.2f%% | %.2f%% | %.0f%%%s |\n",
				w.Name, def.Name, def.Unit, med, q1, q3, 100*spread, 100*worst, 100*def.Bound, verdict)
		}
	}
	return code
}

// lastResult decodes the last line of a run's standard output.
func lastResult(out *bytes.Buffer) (*result, error) {
	last := bytes.TrimSpace(out.Bytes())
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last line of standard output is not a result: %w", err)
	}
	return &res, nil
}
