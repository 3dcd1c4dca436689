package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Metric is one reported figure: its name, unit, and which direction is
// better.
type Metric struct {
	Name   string
	Unit   string
	Better string
}

// EndToEnd are the metrics a user of the system sees, reported from the
// untraced samples. Every one is non-zero on every workload.
var EndToEnd = []Metric{
	{"exhaust_s", "s", "lower"},            // first step or tick to an empty frontier
	{"paths_per_s", "1/s", "higher"},       // paths / exhaust_s
	{"setup_s", "s", "lower"},              // compile + interpreter + explorer (or sim) construction
	{"peak_rss_mb", "MB", "lower"},         // the sample process's peak resident set
	{"completed_share", "share", "higher"}, // mean over samples: 0 if failed, else 1 - kills/(paths+kills)
	{"virtual_ticks", "count", "lower"},    // lock-step ticks (one node: quantum-sized rounds) to exhaust
}

// selfLayers are the layers whose profile self time is reported on its
// own; the remaining repository packages are summed into other.self_s.
var selfLayers = []string{"solver", "expr", "interp", "state", "mem", "search", "engine", "tree", "cluster", "bench"}

func isSelfLayer(l string) bool {
	for _, x := range selfLayers {
		if x == l {
			return true
		}
	}
	return false
}

// counterMetrics are per-layer metrics copied from the deterministic
// counters, with their units.
var counterMetrics = []Metric{
	{"solver.queries", "count", "lower"},
	{"solver.fork_queries", "count", "lower"},
	{"solver.fork_interval_hits", "count", "higher"},
	{"solver.fork_fast_hits", "count", "higher"},
	{"solver.cache_hits", "count", "higher"},
	{"solver.group_cache_hits", "count", "higher"},
	{"solver.subsume_unsat", "count", "higher"},
	{"solver.runs", "count", "lower"},
	{"solver.backtracks", "count", "lower"},
	{"expr.interned_nodes", "count", "lower"},
	{"expr.intern_hits", "count", "higher"},
	{"interp.instructions", "count", "lower"},
	{"interp.forks", "count", "lower"},
	{"search.select_calls", "count", "lower"},
	{"search.stale_selects", "count", "lower"},
	{"search.steps_to_final_cov", "count", "lower"},
	{"engine.steps", "count", "lower"},
	{"engine.useful_steps", "count", "lower"},
	{"engine.replay_steps", "count", "lower"},
	{"engine.materialized", "count", "lower"},
	{"engine.broken_replays", "count", "lower"},
	{"engine.budget_kills", "count", "lower"},
	{"cluster.transfers_issued", "count", "lower"},
	{"cluster.states_transferred", "count", "lower"},
	{"cluster.jobs_sent", "count", "lower"},
	{"cluster.peer_payload_bytes", "B", "lower"},
	{"cluster.lb_payload_bytes", "B", "lower"},
	{"cluster.unit_grants", "count", "lower"},
}

// timingMetrics are per-layer metrics measured by the traced sample:
// profile self and cumulative times, span totals and percentiles.
var timingMetrics = func() []Metric {
	var out []Metric
	for _, l := range selfLayers {
		out = append(out, Metric{l + ".self_s", "s", "lower"})
	}
	out = append(out,
		Metric{"other.self_s", "s", "lower"},
		Metric{"solver.query_s", "s", "lower"},
		Metric{"interp.advance_s", "s", "lower"},
		Metric{"state.clone_s", "s", "lower"},
		Metric{"search.select_s", "s", "lower"},
		Metric{"search.add_s", "s", "lower"},
		Metric{"search.remove_s", "s", "lower"},
		Metric{"engine.step_p50_us", "us", "lower"},
		Metric{"engine.step_p99_us", "us", "lower"},
		Metric{"cluster.lb_tick_s", "s", "lower"},
		Metric{"cluster.lb_update_s", "s", "lower"},
		Metric{"cluster.lb_balance_s", "s", "lower"},
		Metric{"cluster.tick_p50_us", "us", "lower"},
		Metric{"cluster.tick_p99_us", "us", "lower"},
	)
	return out
}()

// derivedMetrics are per-layer metrics computed from several sources.
var derivedMetrics = []Metric{
	{"solver.backtracks_killed_share", "share", "lower"},
	{"engine.replay_share", "share", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.mallocs", "count", "lower"},
	{"go.num_gc", "count", "lower"},
	{"go.gc_cpu_s", "s", "lower"},
	{"cc.compile_s", "s", "lower"},
	{"engine.new_s", "s", "lower"},
	{"trace.exhaust_s", "s", "lower"},
	{"trace.profile_s", "s", "lower"},
	{"trace.background_s", "s", "lower"},
	{"trace.unattributed_share", "share", "lower"},
	{"trace.overhead_share", "share", "lower"},
}

// PerLayer is every metric a traced run reports.
var PerLayer = append(append(append([]Metric{}, counterMetrics...), timingMetrics...), derivedMetrics...)

// MinProfileSamples is the resolution floor: a profile-derived time
// backed by fewer samples is reported as Unresolved.
const MinProfileSamples = 10

// Unresolved stands in for a figure the traced run cannot resolve: a
// profile-derived time resting on fewer than MinProfileSamples samples,
// or a share the sim cannot attribute. Real values are never negative.
const Unresolved = -1.0

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's output line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Evaluation is a Result plus the problems found, for the report.
type Evaluation struct {
	Result
	Problems []string
}

// Evaluate checks every sample and aggregates the metrics: the end-to-end
// metrics over the untraced samples and, when traced is non-nil, the
// per-layer metrics of the traced sample too.
func Evaluate(w Workload, runs, setups []*Sample, traced *Sample) Evaluation {
	var ev Evaluation
	ev.Metrics = map[string]Value{}
	all := append(append([]*Sample{}, runs...), setups...)
	if traced != nil {
		all = append(all, traced)
	}
	// Samples with the same seed must repeat every deterministic counter.
	ref := map[int64]*Sample{}
	for _, s := range all {
		ev.Attempted++
		bad := []string(nil)
		if s.Err != "" {
			bad = []string{s.Err}
		} else if s.Mode != ModeSetup {
			bad = Check(w, s)
			if r := ref[s.Seed]; r == nil && len(bad) == 0 {
				ref[s.Seed] = s
			} else if r != nil {
				if d := diffCounters(r.Counters, s.Counters); d != "" {
					bad = append(bad, fmt.Sprintf("deterministic counters differ from the seed-%d sample: %s", s.Seed, d))
				}
			}
		}
		if len(bad) > 0 {
			ev.Failed++
			for _, b := range bad {
				ev.Problems = append(ev.Problems, fmt.Sprintf("%s sample: %s", s.Mode, b))
			}
		}
	}
	ev.Correct = ev.Failed == 0 && len(runs) > 0
	ev.endToEnd(w, runs, setups)
	if traced != nil {
		ev.perLayer(runs, setups, traced)
	}
	return ev
}

// diffCounters names the first counter present in both maps whose values
// differ ("" if none).
func diffCounters(a, b map[string]uint64) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if bv, ok := b[k]; ok && bv != a[k] {
			return fmt.Sprintf("%s %d vs %d", k, a[k], bv)
		}
	}
	return ""
}

func (ev *Evaluation) put(name string, v float64) {
	for _, m := range append(append([]Metric{}, EndToEnd...), PerLayer...) {
		if m.Name == name {
			ev.Metrics[name] = Value{Value: v, Unit: m.Unit}
			return
		}
	}
	panic("bench: unregistered metric " + name)
}

// completedShare is one sample's 1 - failed_share: 0 if the sample failed
// (crashed, timed out or failed the oracle), else 1 - budget kills /
// (paths + kills).
func completedShare(w Workload, s *Sample) float64 {
	if len(Check(w, s)) > 0 {
		return 0
	}
	k, p := float64(s.Counters["engine.budget_kills"]), float64(s.Counters["engine.paths"])
	return 1 - k/(p+k)
}

// endToEnd reports medians over the samples that ran, except
// completed_share: its mean over every sample, so one failed sample
// among fewer than twenty moves it past its bound.
func (ev *Evaluation) endToEnd(w Workload, runs, setups []*Sample) {
	var exhaust, pps, rss, ticks, setup []float64
	done := 0.0
	for _, s := range runs {
		done += completedShare(w, s)
		if s.Err != "" {
			continue
		}
		setup = append(setup, s.SetupS)
		exhaust = append(exhaust, s.ExhaustS)
		pps = append(pps, float64(s.Counters["engine.paths"])/s.ExhaustS)
		rss = append(rss, s.PeakRSSMB)
		ticks = append(ticks, float64(s.Counters["virtual_ticks"]))
	}
	if len(runs) > 0 {
		done /= float64(len(runs))
	}
	for _, s := range setups {
		if s.Err == "" {
			setup = append(setup, s.SetupS)
		}
	}
	ev.put("exhaust_s", Median(exhaust))
	ev.put("paths_per_s", Median(pps))
	ev.put("setup_s", Median(setup))
	ev.put("peak_rss_mb", Median(rss))
	ev.put("completed_share", done)
	ev.put("virtual_ticks", Median(ticks))
}

func (ev *Evaluation) perLayer(runs, setups []*Sample, tr *Sample) {
	c := tr.Counters
	for _, m := range counterMetrics {
		ev.put(m.Name, float64(c[m.Name]))
	}
	for _, m := range timingMetrics {
		v, n := tr.Layer[m.Name], tr.LayerN[m.Name]
		// Span totals and percentiles are exact; profile-derived times
		// need enough samples to mean anything.
		if fromProfile(m.Name) && n < MinProfileSamples {
			v = Unresolved
		}
		ev.put(m.Name, v)
	}
	share := 0.0
	if bt := c["solver.backtracks"]; bt > 0 && c["engine.budget_kills"] > 0 {
		if killed, ok := c["solver.backtracks_killed"]; ok {
			share = float64(killed) / float64(bt)
		} else {
			share = Unresolved // the sim's steps are not bracketed one by one
		}
	}
	ev.put("solver.backtracks_killed_share", share)
	replay := 0.0
	if u := c["engine.useful_steps"]; u > 0 {
		replay = float64(c["engine.replay_steps"]) / float64(u)
	}
	ev.put("engine.replay_share", replay)
	var untraced []float64
	goStats := map[string][]float64{}
	var compile, engineNew []float64
	for _, s := range append(append([]*Sample{}, runs...), setups...) {
		if s.Err != "" {
			continue
		}
		compile = append(compile, s.CompileS)
		engineNew = append(engineNew, s.EngineS)
		if s.Mode == ModeRun {
			untraced = append(untraced, s.ExhaustS)
			for k, v := range s.Runtime {
				goStats[k] = append(goStats[k], v)
			}
		}
	}
	for _, k := range []string{"go.alloc_mb", "go.mallocs", "go.num_gc", "go.gc_cpu_s"} {
		ev.put(k, Median(goStats[k]))
	}
	ev.put("cc.compile_s", Median(compile))
	ev.put("engine.new_s", Median(engineNew))
	ev.put("trace.exhaust_s", tr.ExhaustS)
	ev.put("trace.profile_s", tr.Layer["trace.profile_s"])
	ev.put("trace.background_s", tr.Layer["trace.background_s"])
	attributed := tr.Layer["other.self_s"]
	for _, l := range selfLayers {
		attributed += tr.Layer[l+".self_s"]
	}
	unattributed, overhead := 0.0, 0.0
	if tr.ExhaustS > 0 {
		unattributed = (tr.ExhaustS - attributed) / tr.ExhaustS
	}
	if m := Median(untraced); m > 0 {
		overhead = tr.ExhaustS/m - 1
	}
	ev.put("trace.unattributed_share", unattributed)
	ev.put("trace.overhead_share", overhead)
}

// fromProfile reports whether a timing metric comes from the CPU profile
// (as opposed to spans).
func fromProfile(name string) bool {
	if _, ok := entryPoints[name]; ok {
		return true
	}
	return strings.HasSuffix(name, ".self_s")
}

// Median is the middle value of xs (the mean of the two middle values
// for an even count; 0 for none).
func Median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between the closest ranks of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}
