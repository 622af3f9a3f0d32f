// Command perfbench is the repository benchmark. It runs one workload (a
// fixed simulation shape built from --seed) through the runner API for
// --seconds, checks every simulation's output, and prints the end-to-end
// metrics (--trace 0) or the per-layer ledger (--trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.0012, "unit": "s"}, ...}}
//
// Build and run it from the repository root with run.sh:
//
//	bash perfbench/run.sh --workload ft64-adaptive-uniform --seed 1 --seconds 55 --trace 0
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is what a benchmark run reports.
type outcome struct {
	attempted, failed int
	metrics           []metric
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer ledger")
	out := fs.String("out", ".bench_build/out", "directory for the span sample, ledger and CPU profile of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds <= 0 {
		err = errors.New("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	host := hostShape()
	fmt.Fprintf(stdout, "host %s\n", host)
	hostProcs := runtime.GOMAXPROCS(0)
	if w.shards > 1 {
		// Shards in line: the timings do not depend on the host's cores,
		// and the traced run's spans nest on one goroutine.
		runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(hostProcs)
		fmt.Fprintf(stdout, "%d shards run in line (GOMAXPROCS=1)\n", w.shards)
	}
	var o outcome
	if *trace == 0 {
		o = endToEnd(stdout, w, *seed, *seconds)
	} else {
		o, err = ledger(stdout, w, *seed, *seconds, hostProcs, host, *out)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "runs attempted=%d failed=%d\n", o.attempted, o.failed)
	return printResult(stdout, o)
}

func printResult(stdout io.Writer, o outcome) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range o.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, ms})
	if err != nil {
		fmt.Fprintln(stdout, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
