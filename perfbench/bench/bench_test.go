package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"cloud9/internal/cluster"
	"cloud9/internal/engine"
	"cloud9/internal/targets"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]Metric{}, EndToEnd...), PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s registered twice", m.Name)
		}
		seen[m.Name] = true
		if strings.HasSuffix(m.Name, "_s") && !strings.HasSuffix(m.Name, "_per_s") && m.Unit != "s" ||
			strings.HasSuffix(m.Name, "_us") && m.Unit != "us" ||
			strings.HasSuffix(m.Name, "_share") && m.Unit != "share" ||
			strings.HasSuffix(m.Name, "_mb") && m.Unit != "MB" {
			t.Errorf("metric %s: unit %s disagrees with its name", m.Name, m.Unit)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metric
// and workload catalogs in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var gated []Workload
	for _, w := range Workloads {
		if !w.ByHand {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, catalog %d", len(spec.Workloads), len(gated))
	}
	for i, w := range spec.Workloads {
		if w.Name != gated[i].Name || w.Why != gated[i].Why {
			t.Errorf("workload %d: json %q/%q, catalog %q/%q", i, w.Name, w.Why, gated[i].Name, gated[i].Why)
		}
	}
	check := func(kind string, got []metric, want []Metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: json has %d metrics, catalog %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s %d: json %+v, catalog %+v", kind, i, m, w)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, m.Name, m.Bound != nil)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, *m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, EndToEnd, true)
	check("per_layer", spec.PerLayer, PerLayer, false)
}

func sampleWith(w Workload, o Outcome) *Sample {
	return &Sample{Mode: ModeRun, Exhausted: true, ExhaustS: 1, Counters: map[string]uint64{
		"engine.paths": o.Paths, "engine.errors": o.Errors, "engine.hangs": o.Hangs,
		"engine.budget_kills": o.Kills, "engine.coverage_lines": o.Coverage, "virtual_ticks": 5,
	}}
}

func TestExpectedTable(t *testing.T) {
	mc, _ := Lookup("memcached-1w")
	for _, o := range []Outcome{{Paths: 312, Kills: 10, Coverage: 147}, {Paths: 322, Coverage: 147}} {
		if bad := Check(mc, sampleWith(mc, o)); len(bad) > 0 {
			t.Errorf("memcached outcome %+v rejected: %v", o, bad)
		}
	}
	for _, o := range []Outcome{{Paths: 312, Coverage: 147}, {Paths: 322, Kills: 10, Coverage: 147}, {Paths: 312, Kills: 10, Coverage: 146}} {
		if bad := Check(mc, sampleWith(mc, o)); len(bad) == 0 {
			t.Errorf("memcached outcome %+v accepted", o)
		}
	}
	p2p, _ := Lookup("printf5-4w-p2p")
	s := sampleWith(p2p, printf5[0])
	if bad := Check(p2p, s); len(bad) > 0 {
		t.Fatalf("p2p outcome rejected: %v", bad)
	}
	s.Counters["cluster.lb_payload_bytes"] = 17
	if bad := Check(p2p, s); len(bad) == 0 {
		t.Error("payload bytes through the LB accepted on p2p")
	}
	s = sampleWith(p2p, printf5[0])
	s.Exhausted = false
	if bad := Check(p2p, s); len(bad) == 0 {
		t.Error("unexhausted frontier accepted")
	}
	if _, err := Lookup("no-such-workload"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestWrongCountFailsRun: a sample reporting a wrong path count, or one
// that crashed, is a failed sample, makes the run incorrect, and lowers
// completed_share by its share of the samples.
func TestWrongCountFailsRun(t *testing.T) {
	w, _ := Lookup("printf5-1w")
	good := sampleWith(w, printf5[0])
	bad := sampleWith(w, printf5[0])
	bad.Counters["engine.paths"] = 16712
	ev := Evaluate(w, []*Sample{good, good}, nil, nil)
	if !ev.Correct || ev.Failed != 0 || ev.Metrics["completed_share"].Value != 1 {
		t.Fatalf("good run: %+v", ev)
	}
	ev = Evaluate(w, []*Sample{good, bad, bad}, nil, nil)
	if ev.Correct || ev.Failed != 2 || ev.Attempted != 3 {
		t.Fatalf("wrong count not reported as failed: %+v", ev.Result)
	}
	if got := ev.Metrics["completed_share"].Value; got < 0.333 || got > 0.334 {
		t.Errorf("completed_share = %v with 2 of 3 samples failed", got)
	}
	// A crashed sample counts as failed; a budget kill lowers the share.
	crashed := &Sample{Mode: ModeRun, Err: "sample process: signal: killed"}
	ev = Evaluate(w, []*Sample{good, good, good, crashed}, nil, nil)
	if ev.Correct || ev.Failed != 1 || ev.Metrics["completed_share"].Value != 0.75 {
		t.Errorf("crashed sample: completed_share %v, %+v", ev.Metrics["completed_share"].Value, ev.Result)
	}
	mc, _ := Lookup("memcached-1w")
	ev = Evaluate(mc, []*Sample{sampleWith(mc, Outcome{Paths: 312, Kills: 10, Coverage: 147})}, nil, nil)
	if got := ev.Metrics["completed_share"].Value; !ev.Correct || got != 1-10.0/322 {
		t.Errorf("memcached seed pin: completed_share %v, %v", got, ev.Problems)
	}
	for _, m := range EndToEnd {
		if _, ok := ev.Metrics[m.Name]; !ok {
			t.Errorf("end-to-end metric %s missing", m.Name)
		}
	}
	// A counter that does not repeat across samples fails the run too.
	drift := sampleWith(w, printf5[0])
	drift.Counters["virtual_ticks"] = 6
	if ev := Evaluate(w, []*Sample{good, drift}, nil, nil); ev.Correct {
		t.Error("non-repeating counter accepted")
	}
}

// tiny is a small workload for exercising the real pipeline in tests.
func tiny(workers int, plane string) Workload {
	return Workload{
		Name: "tiny", Target: func() targets.Target { return targets.Printf(2) },
		Workers: workers, DataPlane: plane,
		Expect: []Outcome{{Paths: 29, Coverage: 95}},
	}
}

func TestTinyRunsPassTheOracle(t *testing.T) {
	for _, w := range []Workload{tiny(1, ""), tiny(4, cluster.DataPlaneP2P), tiny(4, cluster.DataPlaneDepth)} {
		s := RunSample(w, 1, ModeRun, "")
		if bad := Check(w, s); len(bad) > 0 {
			t.Errorf("%d workers %q: %v (counters %v)", w.Workers, w.DataPlane, bad, s.Counters)
		}
		if s.ExhaustS <= 0 || s.SetupS <= 0 || s.PeakRSSMB <= 0 {
			t.Errorf("%d workers %q: exhaust %v setup %v rss %v", w.Workers, w.DataPlane, s.ExhaustS, s.SetupS, s.PeakRSSMB)
		}
	}
}

// TestSeedOneIsTheEngineDefault: seed 1 reproduces the Strategy=nil run
// exactly, on one node and on the sim.
func TestSeedOneIsTheEngineDefault(t *testing.T) {
	tgt := targets.Printf(3)
	w := Workload{Name: "p3", Target: func() targets.Target { return tgt }, Workers: 4, DataPlane: cluster.DataPlaneP2P}
	res, err := cluster.RunSim(cluster.SimConfig{
		Workers: 4, Entry: "main", NewInterp: targets.Factory(tgt),
		Engine: engine.Config{MaxStateSteps: maxStateSteps}, Quantum: quantum,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := RunSample(w, 1, ModeRun, "")
	if s.Err != "" {
		t.Fatal(s.Err)
	}
	if got := s.Counters["virtual_ticks"]; got != uint64(res.Ticks) {
		t.Errorf("sim ticks %d, Strategy=nil %d", got, res.Ticks)
	}
	if got := s.Counters["cluster.transfers_issued"]; got != uint64(res.Final.TransfersIssued) {
		t.Errorf("sim transfers %d, Strategy=nil %d", got, res.Final.TransfersIssued)
	}

	in, err := targets.Factory(tgt)()
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(in, "main", engine.Config{MaxStateSteps: maxStateSteps})
	if err != nil {
		t.Fatal(err)
	}
	steps, err := e.RunToCompletion(0)
	if err != nil {
		t.Fatal(err)
	}
	w.Workers = 1
	s = RunSample(w, 1, ModeRun, "")
	if got := s.Counters["engine.steps"]; got != uint64(steps) {
		t.Errorf("single-node steps %d, Strategy=nil %d", got, steps)
	}
	if got, want := s.Counters["solver.queries"], in.Solver.Stats.Snapshot().Queries; got != want {
		t.Errorf("single-node queries %d, Strategy=nil %d", got, want)
	}
}

// TestPathsInvariantAcrossSeeds: the seed changes the exploration order,
// never what is explored.
func TestPathsInvariantAcrossSeeds(t *testing.T) {
	for _, w := range []Workload{tiny(1, ""), tiny(4, cluster.DataPlaneP2P)} {
		for seed := int64(1); seed <= 4; seed++ {
			s := RunSample(w, seed, ModeRun, "")
			if bad := Check(w, s); len(bad) > 0 {
				t.Errorf("%d workers seed %d: %v", w.Workers, seed, bad)
			}
		}
	}
}

// TestTracedMatchesUntraced: tracing measures the same program — every
// deterministic counter repeats — and a traced run reports every metric.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range []Workload{tiny(1, ""), tiny(4, cluster.DataPlaneP2P)} {
		run := RunSample(w, 2, ModeRun, "")
		traced := RunSample(w, 2, ModeTraced, t.TempDir())
		if run.Err != "" || traced.Err != "" {
			t.Fatalf("errors: %q %q", run.Err, traced.Err)
		}
		// The expr hash-cons table is process-global, so its counters only
		// repeat across fresh processes, as the benchmark runs samples.
		for _, k := range []string{"expr.interned_nodes", "expr.intern_hits"} {
			delete(run.Counters, k)
			delete(traced.Counters, k)
		}
		if d := diffCounters(run.Counters, traced.Counters); d != "" {
			t.Errorf("%d workers: traced counters differ: %s", w.Workers, d)
		}
		ev := Evaluate(w, []*Sample{run}, nil, traced)
		if !ev.Correct {
			t.Errorf("%d workers: %v", w.Workers, ev.Problems)
		}
		for _, m := range append(append([]Metric{}, EndToEnd...), PerLayer...) {
			if _, ok := ev.Metrics[m.Name]; !ok {
				t.Errorf("metric %s missing from the traced run", m.Name)
			}
		}
	}
}

func TestBelowResolutionIsReported(t *testing.T) {
	w := tiny(1, "")
	tr := sampleWith(w, w.Expect[0])
	tr.Mode = ModeTraced
	tr.Layer = map[string]float64{"solver.self_s": 0.05, "expr.self_s": 0.5, "search.select_s": 0.001}
	tr.LayerN = map[string]int{"solver.self_s": 5, "expr.self_s": 50, "search.select_s": 3}
	ev := Evaluate(w, []*Sample{sampleWith(w, w.Expect[0])}, nil, tr)
	if got := ev.Metrics["solver.self_s"].Value; got != Unresolved {
		t.Errorf("5-sample self time reported as %v", got)
	}
	if got := ev.Metrics["expr.self_s"].Value; got != 0.5 {
		t.Errorf("50-sample self time reported as %v", got)
	}
	if got := ev.Metrics["search.select_s"].Value; got != 0.001 {
		t.Errorf("span total reported as %v", got)
	}
}

func TestProfileDecodeAndFold(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x += burn(1000)
	}
	pprof.StopCPUProfile()
	samples, err := DecodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	f := FoldProfile(samples)
	if f.Samples == 0 || f.Total <= 0 {
		t.Fatalf("no samples decoded (%d)", x)
	}
	if f.Self["bench"] == 0 {
		t.Errorf("benchmark frames not attributed: %+v", f.Self)
	}
	if !strings.Contains(Folded(samples), "cloud9/perfbench/bench.burn") {
		t.Error("folded stacks miss the burning function")
	}
}

//go:noinline
func burn(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i
	}
	return s
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		fn, file, want string
	}{
		{"cloud9/internal/solver.(*Solver).Fork", "/x/internal/solver/solver.go", "solver"},
		{"cloud9/internal/engine.weightOf", "/x/internal/engine/strategy.go", "search"},
		{"cloud9/internal/engine.(*Explorer).Step", "/x/internal/engine/explorer.go", "engine"},
		{"cloud9/internal/search.Build", "/x/internal/search/spec.go", "search"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", ""},
	} {
		if got := LayerOf(Frame{Func: c.fn, File: c.file}); got != c.want {
			t.Errorf("LayerOf(%s) = %q, want %q", c.fn, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := percentile([]float64{0, 10}, 0.99); got < 9.89 || got > 9.91 {
		t.Errorf("p99 = %v", got)
	}
}
