package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in names.go")

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []boundedEntry  `json:"end_to_end"`
	PerLayer   []metricEntry   `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedEntry struct {
	metricEntry
	Bound float64 `json:"bound"`
}

// wantBenchmarkFile renders names.go's tables in BENCHMARK.json's shape.
func wantBenchmarkFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 12,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, boundedEntry{metricEntry{m.Name, m.Unit, m.Better}, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, metricEntry{m.Name, m.Unit, m.Better})
	}
	return f
}

// TestBenchmarkJSON holds BENCHMARK.json to the names, units and bounds the
// command prints.
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := wantBenchmarkFile()
	if *update {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json disagrees with names.go (re-run with -update):\n got %+v\nwant %+v", got, want)
	}
	if len(want.PerLayer) > 128 || len(want.EndToEnd) > 16 || len(want.Workloads) > 8 {
		t.Errorf("table sizes exceed the benchmark contract: %d per-layer, %d end-to-end, %d workloads",
			len(want.PerLayer), len(want.EndToEnd), len(want.Workloads))
	}
}

// checkMetrics asserts that exactly the metrics of defs were emitted, each
// finite and carrying its unit.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v, want a finite number", d.Name, v.Value)
		case v.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, want %q", d.Name, v.Unit, d.Unit)
		}
	}
}

// TestSmoke runs every workload at 100 KB / 2 ops, untraced and traced: all
// metrics present, oracle passing, nothing failed, and the cells predicted
// flat are flat.
func TestSmoke(t *testing.T) {
	sz := defaultSizing
	sz.DocBytes = 100_000
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			out := t.TempDir()
			cfg := config{workload: w, sz: sz, seed: defaultSeed, minOps: 2, outDir: out}
			env := captureEnv(out)

			res := runWorkload(cfg, env)
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d err=%v", res.Correct, res.Attempted, res.Failed, res.err)
			}
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
				}
			}

			cfg.trace = true
			res = runWorkload(cfg, env)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v attempted=%d failed=%d err=%v", res.Correct, res.Attempted, res.Failed, res.err)
			}
			checkMetrics(t, res, perLayer)
			for _, name := range []string{
				"reliable.retries", "reliable.resumes", "reliable.fallbacks",
				"registry.sched_shed", "endpoint.sessions_live_end",
			} {
				if v := res.Metrics[name].Value; v != 0 {
					t.Errorf("%s = %v, want 0 on a clean link", name, v)
				}
			}
			if journaled := res.Metrics["durable.appends_per_op"].Value > 0; journaled != w.Journal {
				t.Errorf("durable.appends_per_op = %v with Journal=%v", res.Metrics["durable.appends_per_op"].Value, w.Journal)
			}
			if w.Delta && res.Metrics["reliable.delta_records"].Value <= 0 {
				t.Errorf("reliable.delta_records = %v on the delta workload", res.Metrics["reliable.delta_records"].Value)
			}
			if res.Metrics["budget.coverage_ratio"].Value <= 0 || res.Metrics["trace.overhead_ratio"].Value <= 0 {
				t.Errorf("budget.coverage_ratio = %v, trace.overhead_ratio = %v, want both > 0",
					res.Metrics["budget.coverage_ratio"].Value, res.Metrics["trace.overhead_ratio"].Value)
			}
			checkSpanFile(t, filepath.Join(out, "trace_"+w.Name+".json"))
		})
	}
}

// checkSpanFile asserts that the spans of every exchange id nest under one
// root span carrying that id.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	roots := map[string]int{}
	for _, s := range file.Spans {
		if s.Parent == 0 {
			if roots[s.Exchange] != 0 {
				t.Errorf("exchange %s has two root spans", s.Exchange)
			}
			roots[s.Exchange] = s.ID
		}
		if s.EndUS < s.StartUS {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	if len(roots) == 0 {
		t.Fatal("span file holds no root span")
	}
	for _, s := range file.Spans {
		if s.Parent != 0 && s.Parent != roots[s.Exchange] {
			t.Errorf("span %d (%s) of exchange %s hangs under span %d, not its root %d",
				s.ID, s.Name, s.Exchange, s.Parent, roots[s.Exchange])
		}
	}
}

// TestCommandLine drives the command as the benchmark driver does and
// checks the shape of the result line.
func TestCommandLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "control_small", "--seed", "7", "--seconds", "1", "--trace", "0", "-out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var got map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &got); err != nil {
		t.Fatalf("last stdout line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[key]; !ok {
			t.Errorf("result line lacks %q", key)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(got))
	}
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload accepted")
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4), the
// rule the benchmark driver judges spreads by.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5}, [3]float64{1, 3, 4.5}},
		{[]float64{2, 9}, [3]float64{0.25, 5.5, 10.75}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
