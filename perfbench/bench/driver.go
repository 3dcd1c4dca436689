package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// Options configure one benchmark run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	// Exe is this benchmark binary; every sample runs in a fresh process
	// of it.
	Exe      string
	TraceDir string
}

const (
	// setupReps set-up-only processes run after the measured samples, so
	// setup_s is a median even when a workload fits one sample in a run.
	setupReps = 15
	// hardLimit bounds a whole run, whatever a sample does.
	hardLimit = 170 * time.Second
)

// Drive runs one benchmark run: untraced samples in fresh processes for
// o.Seconds (at least one), set-up-only samples, and with o.Trace one
// traced sample. Every sample uses the workload seed, so a run's medians
// cover one exploration and the repeat check compares every sample. It
// prints a report to report and the result line, last, to out.
func Drive(o Options, out, report io.Writer) error {
	w, err := Lookup(o.Workload)
	if err != nil {
		return err
	}
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(hardLimit))
	defer cancel()
	budget := time.Duration(o.Seconds) * time.Second
	var runs, setups []*Sample
	for {
		runs = append(runs, child(ctx, o, ModeRun, o.Seed))
		// Start another sample only if one more fits the measuring time.
		el := time.Since(start)
		if el+el/time.Duration(len(runs)) > budget || ctx.Err() != nil {
			break
		}
	}
	for i := 0; i < setupReps && ctx.Err() == nil; i++ {
		setups = append(setups, child(ctx, o, ModeSetup, o.Seed))
	}
	var traced *Sample
	if o.Trace {
		traced = child(ctx, o, ModeTraced, o.Seed)
	}
	ev := Evaluate(w, runs, setups, traced)
	writeReport(report, o, w, runs, ev)
	line, err := json.Marshal(ev.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// child runs one sample in a fresh process and decodes its result.
func child(ctx context.Context, o Options, mode string, seed int64) *Sample {
	cmd := exec.CommandContext(ctx, o.Exe, "-child", mode, "-workload", o.Workload,
		"-seed", fmt.Sprint(seed), "-trace-dir", o.TraceDir)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	s := &Sample{Workload: o.Workload, Seed: seed, Mode: mode}
	if err != nil {
		s.Err = fmt.Sprintf("sample process: %v: %s", err, strings.TrimSpace(stderr.String()))
		return s
	}
	if err := json.Unmarshal(raw, s); err != nil {
		s.Err = fmt.Sprintf("sample output: %v", err)
	}
	return s
}

// writeReport prints the human-readable account of a run: every sample,
// every problem, every metric with its unit.
func writeReport(w io.Writer, o Options, wl Workload, runs []*Sample, ev Evaluation) {
	fmt.Fprintf(w, "workload %s seed %d: %d samples, %d failed\n", wl.Name, o.Seed, ev.Attempted, ev.Failed)
	for i, s := range runs {
		fmt.Fprintf(w, "  run %d: exhaust %.3fs setup %.4fs paths %d ticks %d rss %.1fMB\n",
			i, s.ExhaustS, s.SetupS, s.Counters["engine.paths"], s.Counters["virtual_ticks"], s.PeakRSSMB)
	}
	for _, p := range ev.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	names := make([]string, 0, len(ev.Metrics))
	for n := range ev.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := ev.Metrics[n]
		if v.Value == Unresolved {
			fmt.Fprintf(w, "  %-32s below resolution\n", n)
			continue
		}
		fmt.Fprintf(w, "  %-32s %.6g %s\n", n, v.Value, v.Unit)
	}
}
