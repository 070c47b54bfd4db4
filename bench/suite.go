package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
)

type suiteOptions struct {
	seed    int64
	seconds float64
	smoke   bool
	runs    int
	aa      bool
	only    []string
	jsonOut string
}

// envInfo is what a reader needs to compare two reports.
type envInfo struct {
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	GitSHA       string  `json:"git_sha"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Runs         int     `json:"runs"`
	ClientPollMs float64 `json:"client_poll_ms"`
	Smoke        bool    `json:"smoke,omitempty"`
}

// e2eReport is one end-to-end metric of one workload over the set's runs.
type e2eReport struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	summary
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

type workloadReport struct {
	Name      string               `json:"name"`
	Why       string               `json:"why"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	NoisyRuns int                  `json:"noisy_runs"`
	EndToEnd  map[string]e2eReport `json:"end_to_end"`
	Layers    map[string]metric    `json:"layers"`
	Notes     map[string]any       `json:"trace_notes,omitempty"`
}

type setReport struct {
	Env       envInfo          `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runChildProcess runs one workload once in a child process of its own
// and parses the two JSON lines it prints last.
func runChildProcess(name string, seed int64, seconds float64, traced, smoke bool) (outcome, detail, error) {
	exe, err := os.Executable()
	if err != nil {
		return outcome{}, detail{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", trace}
	if smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	out, d, err := parseChildOutput(stdout)
	if err != nil {
		if runErr != nil {
			err = fmt.Errorf("%v (%w)", runErr, err)
		}
		return out, d, fmt.Errorf("%s: %w", name, err)
	}
	return out, d, nil
}

// parseChildOutput reads the detail line and the result line that end a
// run's standard output.
func parseChildOutput(stdout []byte) (outcome, detail, error) {
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			lines = append(lines, append([]byte(nil), line...))
		}
	}
	if len(lines) < 2 {
		return outcome{}, detail{}, fmt.Errorf("expected a detail line and a result line, got %d lines", len(lines))
	}
	var out outcome
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return out, detail{}, fmt.Errorf("result line: %w", err)
	}
	var d struct {
		Detail detail `json:"detail"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &d); err != nil {
		return out, detail{}, fmt.Errorf("detail line: %w", err)
	}
	return out, d.Detail, nil
}

// runSet runs every selected workload opts.runs times untraced (seeds
// seed, seed+1, ...) and once traced, each run in its own process.
func runSet(opts suiteOptions, progress io.Writer) (setReport, error) {
	rep := setReport{Env: envInfo{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GitSHA: gitSHA(), Seed: opts.seed, Seconds: opts.seconds, Runs: opts.runs,
		ClientPollMs: ms(clientPoll), Smoke: opts.smoke,
	}}
	for _, w := range workloads {
		if len(opts.only) > 0 && !slices.Contains(opts.only, w.Name) {
			continue
		}
		wr := workloadReport{Name: w.Name, Why: w.Why, EndToEnd: map[string]e2eReport{}}
		samples := map[string][]float64{}
		for r := 0; r < opts.runs; r++ {
			fmt.Fprintf(progress, "%s: run %d/%d\n", w.Name, r+1, opts.runs)
			out, d, err := runChildProcess(w.Name, opts.seed+int64(r), opts.seconds, false, opts.smoke)
			if err != nil {
				return rep, err
			}
			wr.Attempted, wr.Failed = wr.Attempted+out.Attempted, wr.Failed+out.Failed
			if d.Noisy {
				wr.NoisyRuns++
			}
			for name, m := range out.Metrics {
				samples[name] = append(samples[name], m.Value)
			}
		}
		for _, def := range endToEnd {
			s := summarize(samples[def.Name])
			wr.EndToEnd[def.Name] = e2eReport{Unit: def.Unit, Better: def.Better, Bound: def.Bound, summary: s, Spread: s.spread(), Values: samples[def.Name]}
		}
		fmt.Fprintf(progress, "%s: traced run\n", w.Name)
		out, d, err := runChildProcess(w.Name, opts.seed, opts.seconds, true, opts.smoke)
		if err != nil {
			return rep, err
		}
		wr.Attempted, wr.Failed = wr.Attempted+out.Attempted, wr.Failed+out.Failed
		wr.Layers, wr.Notes = out.Metrics, d.Notes
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// printSet prints the human table of one set.
func printSet(w io.Writer, rep setReport) {
	e := rep.Env
	fmt.Fprintf(w, "%s  GOMAXPROCS=%d  nproc=%d  git=%s  seed=%d  %gs x %d runs  client poll %gms\n\n",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.GitSHA, e.Seed, e.Seconds, e.Runs, e.ClientPollMs)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tn\tspread\tbound\tunit\t")
	for _, wr := range rep.Workloads {
		for _, def := range endToEnd {
			m := wr.EndToEnd[def.Name]
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%d\t%.1f%%\t%.0f%%\t%s\t\n",
				wr.Name, def.Name, m.Median, m.Q1, m.Q3, m.N, 100*m.Spread, 100*m.Bound, m.Unit)
		}
	}
	tw.Flush()
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n%s: %d operations checked, %d failed, %d of %d runs noisy; layers measured by its traced run:\n",
			wr.Name, wr.Attempted, wr.Failed, wr.NoisyRuns, rep.Env.Runs)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, def := range perLayer {
			if m := wr.Layers[def.Name]; m.Value != 0 {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", def.Name, m.Value, m.Unit)
			}
		}
		tw.Flush()
	}
}

// exactLayers are the traced run's counts of simulated behaviour. On the
// deterministic-host workloads they depend on the seed alone, so two
// sets of runs of one tree must report them identically.
var exactLayers = []string{
	"ops_failed_pct", "cycle_err_pct",
	"engine.suspensions", "engine.events_served", "engine.host_work_units",
	"violation.bus_count", "violation.map_count", "violation.rate_pct",
	"adaptive.mean_bound", "adaptive.adjustments",
	"checkpoint.count", "checkpoint.words", "checkpoint.rollbacks",
	"checkpoint.replay_cycles", "checkpoint.wasted_cycles",
	"model.f", "model.dr_cycles", "snapshot.bytes",
}

var deterministicHost = map[string]bool{"engine-cc": true, "engine-slack": true, "engine-spec": true}

// compareSets prints the A/A table and reports whether the two sets
// agree: every end-to-end median within its bound of the other set's,
// and every deterministic count identical.
func compareSets(w io.Writer, a, b setReport) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tB/A\tworse by\tbound\tspread A\tspread B\tverdict\t")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, def := range endToEnd {
			ma, mb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			ratio := mb.Median / ma.Median
			worse := ratio - 1
			if def.Better == "higher" {
				worse = 1 - ratio
			}
			// A/A has no parent: either set may play it, so the pair
			// disagrees when either direction exceeds the bound.
			verdict := "ok"
			if worse > def.Bound || -worse > def.Bound {
				verdict, ok = "FAIL", false
			} else if def.Name != "setup_s" && (ma.Spread > def.Bound || mb.Spread > def.Bound) {
				verdict, ok = "FAIL (spread)", false
			} else if def.Name != "setup_s" && (ma.Spread > def.Bound/3 || mb.Spread > def.Bound/3) {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.3f\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\t\n",
				wa.Name, def.Name, ma.Median, mb.Median, ratio, 100*worse, 100*def.Bound, 100*ma.Spread, 100*mb.Spread, verdict)
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if wa.NoisyRuns+wb.NoisyRuns > 0 {
			fmt.Fprintf(w, "%s: %d runs of set A and %d of set B were noisy (spin calibration moved by more than 10%%)\n", wa.Name, wa.NoisyRuns, wb.NoisyRuns)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(w, "%s: FAIL: %d checked operations failed\n", wa.Name, wa.Failed+wb.Failed)
			ok = false
		}
		names := []string{"ops_failed_pct"}
		if deterministicHost[wa.Name] {
			names = exactLayers
		}
		for _, name := range names {
			if va, vb := wa.Layers[name].Value, wb.Layers[name].Value; va != vb {
				fmt.Fprintf(w, "%s: FAIL: %s is %v in set A and %v in set B; it must repeat exactly\n", wa.Name, name, va, vb)
				ok = false
			}
		}
	}
	if ok {
		fmt.Fprintln(w, "A/A: the two sets agree within every bound, and every deterministic count is identical.")
	} else {
		fmt.Fprintln(w, "A/A: FAIL")
	}
	return ok
}

func runSuite(opts suiteOptions) int {
	if opts.smoke && opts.seconds == defaultSeconds {
		opts.seconds = 0.2
	}
	if opts.runs < 1 {
		fatalf("-runs must be at least 1")
	}
	for _, name := range opts.only {
		if !slices.Contains(workloadNames(), name) {
			fatalf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
		}
	}
	a, err := runSet(opts, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	doc := map[string]any{"metrics": map[string]any{"end_to_end": endToEnd, "per_layer": perLayer}, "set_a": a}
	failed := 0
	printSet(os.Stdout, a)
	for _, wr := range a.Workloads {
		failed += wr.Failed
	}
	if opts.aa {
		b, err := runSet(opts, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		doc["set_b"] = b
		fmt.Println("\n--- set B ---")
		printSet(os.Stdout, b)
		fmt.Println("\n--- A/A ---")
		if !compareSets(os.Stdout, a, b) {
			failed++
		}
	}
	if opts.jsonOut != "" {
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		blob = append(blob, '\n')
		if opts.jsonOut == "-" {
			os.Stdout.Write(blob)
		} else if err := os.WriteFile(opts.jsonOut, blob, 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
