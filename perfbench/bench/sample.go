package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"cloud9/internal/cluster"
	"cloud9/internal/engine"
	"cloud9/internal/expr"
	"cloud9/internal/interp"
	"cloud9/internal/obs"
	"cloud9/internal/targets"
)

// Sample modes.
const (
	ModeRun    = "run"    // exhaust the frontier untraced
	ModeSetup  = "setup"  // set up only
	ModeTraced = "traced" // exhaust with spans and a CPU profile
)

// Sample is the outcome of one process's run of one workload.
type Sample struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Mode      string  `json:"mode"`
	Exhausted bool    `json:"exhausted"`
	SetupS    float64 `json:"setup_s"`
	CompileS  float64 `json:"compile_s"`
	EngineS   float64 `json:"engine_new_s"`
	ExhaustS  float64 `json:"exhaust_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Counters are the deterministic work counts of every layer: the same
	// workload and seed must reproduce them exactly, traced or not.
	Counters map[string]uint64 `json:"counters"`
	// Runtime holds the Go runtime's figures over exploration.
	Runtime map[string]float64 `json:"runtime"`
	// Layer holds the traced sample's timings, and LayerN the number of
	// profile samples or spans behind each.
	Layer  map[string]float64 `json:"layer,omitempty"`
	LayerN map[string]int     `json:"layer_n,omitempty"`
	Err    string             `json:"err,omitempty"`
}

// RunSample runs one sample of w in this process. traceDir receives the
// traced sample's spans and folded profile.
func RunSample(w Workload, seed int64, mode, traceDir string) *Sample {
	s := &Sample{Workload: w.Name, Seed: seed, Mode: mode, Counters: map[string]uint64{}}
	tr := &Tracer{}
	ex := exploration{traced: mode == ModeTraced}
	strat := &strategies{seed: seed, tr: tr}
	var err error
	if w.Workers > 1 {
		err = runSim(w, mode, s, strat, &ex)
	} else {
		err = runSingle(w, mode, s, strat, &ex)
	}
	if err != nil {
		s.Err = err.Error()
		return s
	}
	if mode == ModeSetup {
		return s
	}
	s.Counters["search.select_calls"] = strat.selects
	s.Counters["search.stale_selects"] = strat.stale
	s.Counters["engine.steps"] = strat.steps
	nodes, hits := expr.InternStats()
	s.Counters["expr.interned_nodes"] = nodes
	s.Counters["expr.intern_hits"] = hits
	s.Runtime = ex.runtime
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.PeakRSSMB = float64(ru.Maxrss) / 1024
	}
	if mode == ModeTraced {
		if ex.profileErr != nil {
			s.Err = ex.profileErr.Error()
		} else if err := s.fold(tr, strat, ex.prof.Bytes(), traceDir); err != nil {
			s.Err = err.Error()
		}
	}
	return s
}

// exploration brackets the timed part of a sample: from the first step
// or tick to an empty frontier. Runtime statistics are taken outside
// the timed interval.
type exploration struct {
	t0, t1     time.Time
	m0         runtime.MemStats
	gc0        float64
	traced     bool
	prof       bytes.Buffer
	runtime    map[string]float64
	profileErr error
}

// gcCPU is the runtime's estimate of the CPU time GC has used so far.
func gcCPU() float64 {
	m := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(m)
	if m[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return m[0].Value.Float64()
}

// begin starts the clock; in a traced sample it also switches the
// tracer on and starts the CPU profile, so neither covers set-up.
func (e *exploration) begin(tr *Tracer) {
	runtime.ReadMemStats(&e.m0)
	e.gc0 = gcCPU()
	if e.traced {
		e.profileErr = pprof.StartCPUProfile(&e.prof)
	}
	e.t0 = time.Now()
	tr.origin, tr.On = e.t0, e.traced
}

func (e *exploration) end() {
	e.t1 = time.Now()
	if e.traced && e.profileErr == nil {
		pprof.StopCPUProfile()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	e.runtime = map[string]float64{
		"go.alloc_mb": float64(m.TotalAlloc-e.m0.TotalAlloc) / (1 << 20),
		"go.mallocs":  float64(m.Mallocs - e.m0.Mallocs),
		"go.num_gc":   float64(m.NumGC - e.m0.NumGC),
		"go.gc_cpu_s": gcCPU() - e.gc0,
	}
}

// runSingle drives targets.Factory → engine.New → (*Explorer).Step on
// one explorer. Steps are grouped into quantum-sized rounds exactly as
// the lock-step sim groups a worker's steps into ticks, so the round
// count is the single node's virtual time.
func runSingle(w Workload, mode string, s *Sample, strat *strategies, ex *exploration) error {
	t0 := time.Now()
	in, err := targets.Factory(w.Target())()
	if err != nil {
		return err
	}
	t1 := time.Now()
	e, err := engine.New(in, "main", engine.Config{MaxStateSteps: maxStateSteps, Strategy: strat.build})
	if err != nil {
		return err
	}
	t2 := time.Now()
	s.CompileS, s.EngineS, s.SetupS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t2.Sub(t0).Seconds()
	if mode == ModeSetup {
		return nil
	}
	tr := strat.tr
	ex.begin(tr)
	var rounds, lastCovStep, killedBT uint64
	lastCov := 0
	for !e.Done() {
		rounds++
		start := in.Stats.Instructions
		for in.Stats.Instructions-start < quantum && !e.Done() {
			bt, kills := in.Solver.Stats.Backtracks, e.Stats.SolverKilled
			h := tr.Begin("engine.step")
			more, err := e.Step()
			tr.End(h)
			if err != nil {
				return err
			}
			if !more {
				break
			}
			if e.Stats.SolverKilled > kills {
				killedBT += in.Solver.Stats.Backtracks - bt
			}
			if e.Stats.NewLinesEver > lastCov {
				lastCov, lastCovStep = e.Stats.NewLinesEver, strat.steps
			}
		}
	}
	ex.end()
	s.ExhaustS = ex.t1.Sub(ex.t0).Seconds()
	s.Exhausted = e.Done()
	c := s.Counters
	c["virtual_ticks"] = rounds
	c["engine.coverage_lines"] = uint64(e.Cov.Count())
	c["search.steps_to_final_cov"] = lastCovStep
	c["solver.backtracks_killed"] = killedBT
	c["interp.instructions"] = in.Stats.Instructions
	c["interp.forks"] = in.Stats.Forks
	putObsCounters(c, e.Obs.Snapshot())
	return nil
}

// runSim drives cluster.RunSim, timing set-up from outside through the
// NewInterp factory and the first Select, and ticks through StopWhen.
func runSim(w Workload, mode string, s *Sample, strat *strategies, ex *exploration) error {
	factory := targets.Factory(w.Target())
	var interps []*interp.Interp
	newInterp := func() (*interp.Interp, error) {
		t := time.Now()
		in, err := factory()
		s.CompileS += time.Since(t).Seconds()
		if in != nil {
			interps = append(interps, in)
		}
		return in, err
	}
	tr := strat.tr
	var tickSpan int32 = -1
	var lastCovStep uint64
	lastCov := 0
	var t0 time.Time
	strat.onFirstSelect = func() {
		s.SetupS = time.Since(t0).Seconds()
		s.EngineS = s.SetupS - s.CompileS
		if mode == ModeSetup {
			return
		}
		ex.begin(tr)
		tickSpan = tr.Begin("cluster.tick")
	}
	cfg := cluster.SimConfig{
		Workers:   w.Workers,
		Entry:     "main",
		NewInterp: newInterp,
		Engine:    engine.Config{MaxStateSteps: maxStateSteps, Strategy: strat.build},
		Quantum:   quantum,
		Balancer:  cluster.BalancerConfig{DataPlane: w.DataPlane},
	}
	switch mode {
	case ModeSetup:
		cfg.MaxTicks = 1
	case ModeTraced:
		// The per-tick hook: close the tick's span, track coverage growth.
		// BalanceTicks is 1, so the LB's coverage-dirty flag this reads
		// through the snapshot was already consumed by the tick's own
		// balancing round.
		cfg.StopWhen = func(snap cluster.Snapshot) bool {
			tr.End(tickSpan)
			strat.tick++
			if snap.Coverage > lastCov {
				lastCov, lastCovStep = snap.Coverage, strat.steps
			}
			tickSpan = tr.Begin("cluster.tick")
			return false
		}
	}
	t0 = time.Now()
	res, err := cluster.RunSim(cfg)
	if err != nil {
		return err
	}
	if mode == ModeSetup {
		return nil
	}
	if !strat.started {
		return fmt.Errorf("sim ended before its first step")
	}
	tr.End(tickSpan)
	ex.end()
	s.ExhaustS = ex.t1.Sub(ex.t0).Seconds()
	s.Exhausted = res.Exhausted
	c := s.Counters
	c["virtual_ticks"] = uint64(res.Ticks)
	c["engine.coverage_lines"] = uint64(res.Final.Coverage)
	for _, in := range interps {
		c["interp.instructions"] += in.Stats.Instructions
		c["interp.forks"] += in.Stats.Forks
	}
	putObsCounters(c, res.Obs)
	c["cluster.transfers_issued"] = uint64(res.Final.TransfersIssued)
	c["cluster.states_transferred"] = uint64(res.Final.StatesTransferred)
	c["cluster.jobs_sent"] = res.Obs.Counter(obs.MClusterJobsSent)
	c["cluster.peer_payload_bytes"] = res.Obs.Counter(obs.MClusterPeerBytes)
	c["cluster.lb_payload_bytes"] = res.Obs.Counter(obs.MLBPayloadBytes)
	c["cluster.unit_grants"] = res.Obs.Counter(obs.MLBUnitGrants)
	if mode == ModeTraced {
		c["search.steps_to_final_cov"] = lastCovStep
		s.Layer = map[string]float64{}
		s.LayerN = map[string]int{}
		s.putPercentiles("cluster.tick", tr.Durations("cluster.tick"))
	}
	return nil
}

// putObsCounters copies the engine and solver counters from an obs
// registry snapshot (one explorer's, or the sim's fleet-wide fold).
func putObsCounters(c map[string]uint64, o obs.Snapshot) {
	for name, m := range map[string]string{
		"engine.paths":              obs.MEnginePaths,
		"engine.errors":             obs.MEngineErrors,
		"engine.hangs":              obs.MEngineHangs,
		"engine.budget_kills":       obs.MEngineBudgetKills,
		"engine.useful_steps":       obs.MEngineUsefulSteps,
		"engine.replay_steps":       obs.MEngineReplaySteps,
		"engine.materialized":       obs.MEngineMaterialized,
		"engine.broken_replays":     obs.MEngineBrokenReplays,
		"solver.queries":            obs.MSolverQueries,
		"solver.fork_queries":       obs.MSolverForkQueries,
		"solver.fork_interval_hits": obs.MSolverForkIntervalHits,
		"solver.fork_fast_hits":     obs.MSolverForkFastHits,
		"solver.cache_hits":         obs.MSolverCacheHits,
		"solver.group_cache_hits":   obs.MSolverGroupCacheHits,
		"solver.subsume_unsat":      obs.MSolverSubsumeUnsat,
		"solver.runs":               obs.MSolverRuns,
		"solver.backtracks":         obs.MSolverBacktracks,
	} {
		c[name] = o.Counter(m)
	}
}

// putPercentiles records the median and 99th percentile of durs
// (microseconds) under name_p50_us / name_p99_us.
func (s *Sample) putPercentiles(name string, durs []float64) {
	s.Layer[name+"_p50_us"] = percentile(durs, 0.50)
	s.Layer[name+"_p99_us"] = percentile(durs, 0.99)
	s.LayerN[name+"_p50_us"] = len(durs)
	s.LayerN[name+"_p99_us"] = len(durs)
}

// fold turns the traced sample's spans and CPU profile into layer
// timings, and writes both to traceDir.
func (s *Sample) fold(tr *Tracer, strat *strategies, prof []byte, traceDir string) error {
	if s.Layer == nil {
		s.Layer, s.LayerN = map[string]float64{}, map[string]int{}
	}
	total, count := tr.SpanTotals()
	for _, op := range []string{"select", "add", "remove"} {
		s.Layer["search."+op+"_s"] = total["search."+op]
		s.LayerN["search."+op+"_s"] = count["search."+op]
	}
	if steps := tr.Durations("engine.step"); len(steps) > 0 {
		s.putPercentiles("engine.step", steps)
	} else {
		s.putPercentiles("engine.step", strat.stepDurs)
	}
	samples, err := DecodeProfile(prof)
	if err != nil {
		return fmt.Errorf("decode profile: %w", err)
	}
	f := FoldProfile(samples)
	for _, l := range selfLayers {
		s.Layer[l+".self_s"] = f.Self[l]
		s.LayerN[l+".self_s"] = f.SelfN[l]
	}
	other, otherN := 0.0, 0
	for l, v := range f.Self {
		if !isSelfLayer(l) {
			other += v
			otherN += f.SelfN[l]
		}
	}
	s.Layer["other.self_s"], s.LayerN["other.self_s"] = other, otherN
	for m := range entryPoints {
		s.Layer[m] = f.Cum[m]
		s.LayerN[m] = f.CumN[m]
	}
	s.Layer["trace.background_s"], s.LayerN["trace.background_s"] = f.Background, f.Samples
	s.Layer["trace.profile_s"], s.LayerN["trace.profile_s"] = f.Total, f.Samples
	if traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", s.Workload, s.Seed))
	if err := os.WriteFile(base+".folded", []byte(Folded(samples)), 0o644); err != nil {
		return err
	}
	out, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
