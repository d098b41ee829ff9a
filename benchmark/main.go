// Command benchmark is the repository's end-to-end exchange benchmark: it
// stands up agency, source endpoint and target endpoint in one process over
// loopback HTTP, drives four named workloads closed-loop, checks each
// against the publish&map oracle and prints every metric by name with its
// unit. See README.md in this directory.
//
//	go run ./benchmark [-workload w] [-seed s] [-seconds n] [-trace 0|1] [-repeat n]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"
)

// defaultSeed is the documented default; heldOutSeed is never used while a
// change is being written, so a claim can be re-checked on it (README.md).
const (
	defaultSeed = 1
	heldOutSeed = 20040330
)

// warmup runs untimed before every measured window, after set-up: heap
// size, connection pools and sync.Pools reach their steady state.
const warmup = 1500 * time.Millisecond

// An untraced run sets the deployment up setupRounds times — and, for a
// workload that sets up in milliseconds, on until setupBudget is spent (at
// most maxSetupRounds). The median is reported as setup_s and the last
// deployment is the one driven. Single set-ups of the 2.5 MB workloads
// (~0.4 s) differ by up to 25% between runs on this box.
const (
	setupRounds    = 5
	maxSetupRounds = 25
	setupBudget    = time.Second
)

type config struct {
	workload *workload
	sz       sizing
	seed     int64
	dur      time.Duration
	// minOps is the floor of ops per client in every drive, whatever dur.
	minOps int
	warmup time.Duration
	// setupBudget keeps set-up rounds coming past setupRounds until spent.
	setupBudget time.Duration
	trace       bool
	outDir      string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of stdout.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// na names per-layer metrics the workload bypasses (reported as 0).
	na map[string]bool
	// samples is how many exchanges the latency percentiles rest on.
	samples int
	err     error
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all four in turn)")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("seed for xmark, telgen and churn (%d is held out: re-check claims on it, never tune on it)", heldOutSeed))
	seconds := fs.Int("seconds", 12, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: observability on, staged per-layer replay, span file; prints the per-layer metrics")
	repeat := fs.Int("repeat", 0, "run the selected workloads this many times in fresh processes and print per-metric median, quartiles and spread")
	seedStep := fs.Int64("seed-step", 0, "with -repeat: add this to the seed for each further set (0 repeats one seed)")
	outDir := fs.String("out", "benchmark/out", "directory for WAL and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	if err := capProcs(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{*w}
	}
	if *repeat > 0 {
		return runRepeat(selected, *repeat, *seed, *seedStep, *seconds, *outDir, stdout, stderr)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	env := captureEnv(*outDir)
	env.print(stderr)
	code := 0
	for i := range selected {
		cfg := config{
			workload: &selected[i], sz: defaultSizing, seed: *seed,
			dur: time.Duration(*seconds) * time.Second, minOps: 2,
			warmup: warmup, setupBudget: setupBudget, trace: *trace == 1, outDir: *outDir,
		}
		res := runWorkload(cfg, env)
		res.print(stderr, cfg)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct || res.Failed > 0 {
			code = 1
		}
	}
	return code
}

// capProcs pins GOMAXPROCS to min(nproc, 4) — the box the bounds were taken
// on has 2 CPUs — and refuses an environment asking for more procs than
// CPUs: over-subscribed runs time the scheduler, not the exchange. Client
// concurrency derives from GOMAXPROCS (clientCount), so it can never exceed
// nproc either.
func capProcs() error {
	n := runtime.NumCPU()
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		if p, err := strconv.Atoi(v); err == nil && p > n {
			return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs of this box", p, n)
		}
		return nil
	}
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	return nil
}

// runWorkload performs one run: untraced (end-to-end metrics) or traced
// (per-layer metrics), always ending in the oracle check.
func runWorkload(cfg config, env *environment) *result {
	if cfg.trace {
		return runTraced(cfg, env)
	}
	res := &result{Metrics: map[string]value{}}
	var setups []float64
	var d *deployment
	began := time.Now()
	for i := 0; i < setupRounds || (time.Since(began) < cfg.setupBudget && i < maxSetupRounds); i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		if d, err = deploy(cfg.workload, cfg.sz, cfg.seed, cfg.outDir, nil); err != nil {
			return res.fatal(err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.close()

	d.drive(cfg.warmup, 0, false)
	runtime.GC() // start every measured window from a collected heap
	st := d.drive(cfg.dur, cfg.minOps, false)
	if _, err := d.checkOracle(); err != nil {
		st.fail(err)
	}
	res.count(st)
	res.Correct = res.err == nil

	ops := float64(st.attempted)
	res.set("exchange_ms_p50", median(st.latMS))
	res.set("throughput_ops_s", ratio(float64(len(st.latMS)), st.measuredSeconds()))
	res.set("cpu_ms_per_op", ms(st.use.cpu)/ops)
	res.set("wire_bytes_per_doc_byte", ratio(float64(st.wireBytes), float64(st.docBytes)))
	res.set("allocs_per_op", float64(st.use.mallocs)/ops)
	res.set("alloc_mb_per_op", float64(st.use.bytes)/1e6/ops)
	res.set("setup_s", median(setups))
	return res
}

func (r *result) fatal(err error) *result {
	r.err = err
	r.Attempted, r.Failed = 1, 1
	return r
}

func (r *result) count(st *runStats) {
	r.Attempted, r.Failed, r.samples = st.attempted, st.failed, len(st.latMS)
	r.err = st.firstErr
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
	}
	return m
}()

func (r *result) set(name string, v float64) {
	r.Metrics[name] = value{Value: v, Unit: units[name]}
}

// setNA reports a per-layer metric of a layer this workload bypasses.
func (r *result) setNA(names ...string) {
	if r.na == nil {
		r.na = map[string]bool{}
	}
	for _, n := range names {
		r.set(n, 0)
		r.na[n] = true
	}
}

// print writes the human-readable report: every metric by name with unit
// and, for end-to-end metrics, its regression bound.
func (r *result) print(w io.Writer, cfg config) {
	defs, kind := endToEnd, "end-to-end"
	if cfg.trace {
		defs, kind = perLayer, "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  window=%s  samples=%d  attempted=%d failed=%d  %s\n",
		cfg.workload.Name, cfg.seed, cfg.dur, r.samples, r.Attempted, r.Failed, kind)
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			continue
		case r.na[d.Name]:
			fmt.Fprintf(w, "  %-32s %14s %-6s\n", d.Name, "n/a", d.Unit)
		case d.Bound > 0:
			fmt.Fprintf(w, "  %-32s %14.4f %-6s bound %.0f%%\n", d.Name, v.Value, d.Unit, d.Bound*100)
		default:
			fmt.Fprintf(w, "  %-32s %14.4f %-6s\n", d.Name, v.Value, d.Unit)
		}
	}
	if r.err != nil {
		fmt.Fprintf(w, "  FAILED: %v\n", r.err)
	} else {
		fmt.Fprintf(w, "  oracle: target equals publish&map\n")
	}
}
