// Command bench is the repository's benchmark: six workloads that drive
// the simulator, the service and the fleet through their public entry
// points, end-to-end metrics from an untraced run, and per-layer metrics
// from a traced run. See README.md for the names and how to read them.
//
// The driver's form runs one workload in this process and prints one
// JSON object as the last line of standard output:
//
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 12 --trace 0
//
// Without --workload it runs every workload in a child process of its
// own (so peak memory is attributable), several times each, and prints a
// report; -aa does that twice and compares the two sets:
//
//	go run ./bench [-runs 5] [-aa] [-json report.json]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run
// measures.
const defaultSeconds = 12

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in-process and print the driver's JSON line (default: run the whole suite)")
		seed     = flag.Int64("seed", 1, "workload seed: every generated spec, request order and host-scheduling seed derives from it")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny inputs and a fraction of a second per phase: exercises every workload's wiring, measures nothing")
		runs     = flag.Int("runs", 5, "suite: untraced runs per workload, each with its own seed")
		aa       = flag.Bool("aa", false, "suite: run the whole set twice on this tree and fail if any end-to-end median moves beyond its bound")
		only     = flag.String("only", "", "suite: comma-separated workloads to run (default all)")
		jsonOut  = flag.String("json", "", "suite: also write the report as JSON to this file")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the tables in metrics.go define it, and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}

	if *manifest {
		printManifest()
		return
	}
	if *workload != "" {
		os.Exit(runChild(*workload, *seed, *seconds, *trace != 0, *smoke))
	}
	os.Exit(runSuite(suiteOptions{
		seed: *seed, seconds: *seconds, smoke: *smoke, runs: *runs, aa: *aa,
		only: splitList(*only), jsonOut: *jsonOut,
	}))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// runEnv is one run of one workload.
type runEnv struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	// dir is the run's scratch directory (stores, journals); the caller
	// creates and removes it.
	dir string

	mu    sync.Mutex
	notes map[string]any
	dirs  int
}

func (e *runEnv) duration() time.Duration {
	return time.Duration(e.seconds * float64(time.Second))
}

// window is the slice length of a closed-loop phase: the workload's own,
// or a quarter of a run too short to hold four of those.
func (e *runEnv) window(length float64) float64 { return min(length, e.seconds/4) }

// note records a number that explains the run but is not a metric: sample
// counts, the bases of ratios. Notes are printed on the detail line.
func (e *runEnv) note(key string, v any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.notes == nil {
		e.notes = make(map[string]any)
	}
	e.notes[key] = v
}

// subdir returns a fresh directory under the run's scratch directory.
func (e *runEnv) subdir(name string) (string, error) {
	e.mu.Lock()
	e.dirs++
	d := filepath.Join(e.dir, fmt.Sprintf("%s-%d", name, e.dirs))
	e.mu.Unlock()
	return d, os.MkdirAll(d, 0o755)
}

// checker is the correctness gate: every operation whose output the
// benchmark checks is counted, and so is every one that failed.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

// op records one checked operation; a failure keeps its message (the
// first few are printed).
func (c *checker) op(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if len(c.msgs) < 5 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
}

// repeatSetup sets up setupRepeats times, tearing down every instance but
// the last, and returns the last instance with the median set-up time.
func repeatSetup[T any](up func() (T, error), down func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			down(last)
		}
		start := time.Now()
		st, err := up()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = st
	}
	return last, median(times), nil
}

// outcome is what one run reports.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is the line printed before the result line: context a reader of
// the numbers needs but the driver does not.
type detail struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Traced   bool           `json:"traced"`
	SpinMs   [2]float64     `json:"spin_ms"`
	Noisy    bool           `json:"noisy"`
	Notes    map[string]any `json:"notes,omitempty"`
	Failures []string       `json:"failures,omitempty"`
}

// spinCalibration times a fixed arithmetic loop. It runs before and after
// the measured phase; when the two differ by more than 10 % the host's
// speed changed under the run and the run is flagged noisy.
func spinCalibration() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return ms(time.Since(start))
}

var spinSink uint64

// runWorkload runs one workload once and returns its metrics: the
// end-to-end set for an untraced run, the per-layer set for a traced one.
func runWorkload(env *runEnv) (outcome, detail, error) {
	chk := &checker{}
	d := detail{Workload: env.workload, Seed: env.seed, Seconds: env.seconds, Traced: env.traced}
	var values map[string]float64
	var err error
	spin := func() float64 {
		if env.smoke {
			return 0
		}
		return spinCalibration()
	}
	spin() // the first loop of a fresh process runs slow; discard it
	d.SpinMs[0] = spin()
	switch env.workload {
	case "engine-cc", "engine-slack", "engine-spec", "engine-par":
		values, err = measureEngine(env, chk)
	case "serve-hot":
		values, err = measureServe(env, chk)
	case "fleet-cold":
		values, err = measureFleet(env, chk)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", env.workload, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return outcome{}, d, err
	}
	d.SpinMs[1] = spin()
	if lo, hi := d.SpinMs[0], d.SpinMs[1]; lo > 0 && (hi > 1.1*lo || lo > 1.1*hi) {
		d.Noisy = true
	}
	d.Notes, d.Failures = env.notes, chk.msgs

	defs := endToEnd
	if env.traced {
		defs = perLayer
		if chk.attempted > 0 {
			values["ops_failed_pct"] = 100 * float64(chk.failed) / float64(chk.attempted)
		}
	} else {
		values["peak_rss_mb"] = peakRSSMB()
	}
	out := outcome{
		Correct:   chk.failed == 0 && chk.attempted > 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, def := range defs {
		out.Metrics[def.Name] = metric{Value: values[def.Name], Unit: def.Unit}
	}
	for name := range values {
		if _, ok := out.Metrics[name]; !ok {
			return outcome{}, d, fmt.Errorf("internal: %s reported undeclared metric %s", env.workload, name)
		}
	}
	return out, d, nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runChild is the driver's form: one workload, in this process, scratch
// files under .bench_build/ in the working directory, the result as the
// last line of standard output. The exit code is non-zero when the run
// could not be made or any checked operation failed.
func runChild(workload string, seed int64, seconds float64, traced, smoke bool) int {
	if seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fatalf("%v", err)
	}
	dir, err := os.MkdirTemp(base, workload+"-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(dir)
	env := &runEnv{workload: workload, seed: seed, seconds: seconds, traced: traced, smoke: smoke, dir: dir}
	out, d, err := runWorkload(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workload, err)
		return 1
	}
	for _, m := range d.Failures {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", workload, m)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := errors.Join(enc.Encode(map[string]detail{"detail": d}), enc.Encode(out)); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workload, err)
		return 1
	}
	if !out.Correct {
		return 1
	}
	return 0
}

// printManifest prints BENCHMARK.json. Per-layer metrics carry no bound.
func printManifest() {
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layer, len(perLayer))
	for i, m := range perLayer {
		layers[i] = layer{m.Name, m.Unit, m.Better}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, defaultSeconds, workloads, endToEnd, layers}); err != nil {
		fatalf("%v", err)
	}
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
