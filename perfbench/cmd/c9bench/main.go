// Command c9bench runs the end-to-end exploration benchmark.
//
//	c9bench -workload printf5-1w -seed 1 -seconds 30 -trace 0
//
// prints a report on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Each sample runs
// in a fresh process of this binary (-child run|setup|traced), which
// prints the sample as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cloud9/perfbench/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "workload seed (feeds the search strategy seeds)")
		seconds  = flag.Int("seconds", 30, "measuring time of one run")
		trace    = flag.Int("trace", 0, "1: add a traced sample and report per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "where traced samples write spans and folded profiles")
		childArg = flag.String("child", "", "internal: run one sample in this process (run|setup|traced)")
	)
	flag.Parse()
	if *childArg != "" {
		w, err := bench.Lookup(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := json.NewEncoder(os.Stdout).Encode(bench.RunSample(w, *seed, *childArg, *traceDir)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	err = bench.Drive(bench.Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Exe: exe, TraceDir: *traceDir,
	}, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
