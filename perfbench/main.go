// Command perfbench is the repository's end-to-end benchmark. It drives a
// cmd/swserve child process over loopback HTTP from a single load-generator
// process, checks every run's answers against an in-process twin fed the
// same batches, and with -trace 1 adds an in-process layer ledger timed
// from outside the program (spans around calls into each layer's public
// functions, no instrumentation inside the program).
//
// Usage, from the root of a checkout (perfbench/run.sh builds the binaries):
//
//	bash perfbench/run.sh --workload named-durable --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen), both a durable
// named sampler of n=4096, k=16 under a closed-loop writer of 100-value
// batches and an open-loop reader, with timed recoveries of a 200k-value
// write-ahead log:
//
//	named-durable    sharded-weighted-wor, g=4 (internal/parallel); the
//	                 reader alternates /sample and /weight
//	named-unsharded  weighted-wor (bypasses internal/parallel); the reader
//	                 sends /sample
//
// Time metrics other than setup_s are scaled to a reference host speed,
// measured in the same run by a fixed standard-library reference server
// (see refserver.go); the raw figures are printed with every run.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// environment block and a human-readable metric table. The exit code is
// non-zero when a correctness gate fails or the run cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"slidingsample/internal/serve"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a named set of reported numbers.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// result is the benchmark's final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	swserve  string // path of the built cmd/swserve binary
	workDir  string // scratch directory inside the checkout
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: named-durable or named-unsharded")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: report the per-layer ledger instead of the end-to-end metrics")
	flag.StringVar(&cfg.swserve, "swserve", "", "path of the swserve binary under test")
	flag.StringVar(&cfg.workDir, "workdir", "", "scratch directory for state dirs and count records")
	refAddr := flag.String("refserve", "", "serve the reference server on this address (used by the benchmark itself)")
	refLog := flag.String("reflog", "", "the reference server's log file")
	flag.Parse()
	if *refAddr != "" {
		if err := runRefServer(*refAddr, *refLog); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seed == 0 {
		return fmt.Errorf("-seed must be positive (swserve treats seed 0 as random)")
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if _, err := os.Stat(cfg.swserve); err != nil {
		return fmt.Errorf("swserve binary: %w", err)
	}
	if cfg.workDir == "" {
		return fmt.Errorf("-workdir is required")
	}
	runDir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	defer stopAllServers()
	stopOnSignal(runDir)

	wl, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	w, err := runNamed(cfg, runDir, wl)
	if err != nil {
		return err
	}
	out := result{Correct: w.gateErr == nil, Attempted: w.attempted, Failed: w.failed, Metrics: w.e2e}
	if cfg.trace {
		ledger, lerr := runLedger(cfg, runDir, &w)
		if lerr != nil {
			return lerr
		}
		if ledger.gateErr != nil && w.gateErr == nil {
			w.gateErr = ledger.gateErr
			out.Correct = false
		}
		out.Metrics = ledger.m
	}
	env := environment(cfg, w.serverFlags)
	if err := printLine(map[string]any{"environment": env}); err != nil {
		return err
	}
	printTable("end_to_end", cfg.workload, w.e2e)
	for _, n := range w.notes {
		fmt.Println("# " + n)
	}
	if cfg.trace {
		printTable("per_layer", cfg.workload, out.Metrics)
	}
	if w.gateErr != nil {
		fmt.Printf("correctness gate FAILED: %v\n", w.gateErr)
	}
	if err := printLine(out); err != nil {
		return err
	}
	if !out.Correct {
		return fmt.Errorf("correctness gate failed: %v", w.gateErr)
	}
	return nil
}

// workloadRun is what one workload's end-to-end run hands to the output
// and, with -trace 1, to the ledger.
type workloadRun struct {
	e2e         metrics
	attempted   int64
	failed      int64
	gateErr     error
	serverFlags []string
	spec        serve.Spec

	// For the ledger's workload-specific rows.
	acceptRatio  float64 // acknowledged ingest batches over attempts
	queryLateP90 float64 // ms, p90 lateness of the open-loop reader's sends
	recoverState string  // the crashed state dir whose recovery recover_s timed

	notes []string // how each metric was sampled, printed with the table
}

func (w *workloadRun) notef(format string, args ...any) {
	w.notes = append(w.notes, fmt.Sprintf(format, args...))
}

func printLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func printTable(kind, workload string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s metrics, workload %s\n", kind, workload)
	for _, name := range names {
		fmt.Printf("%-40s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// checkoutRoot is the directory the benchmark runs from: the root of a
// checkout, holding go.mod and cmd/swserve.
func checkoutRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return wd
}

func relToRoot(path string) string {
	rel, err := filepath.Rel(checkoutRoot(), path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
