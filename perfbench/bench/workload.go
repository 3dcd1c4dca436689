// Package bench is the repository's end-to-end exploration benchmark.
// Each measured sample exhausts one workload's path space in a fresh
// process (the expr hash-cons table is process-global), checks the
// result against the expected table, and reports wall time, set-up
// time, memory and the deterministic work counters of every layer. A
// traced sample adds spans around every call the benchmark makes into a
// layer and a CPU profile folded per layer. See ../README.md.
package bench

import (
	"fmt"
	"sort"

	"cloud9/internal/cluster"
	"cloud9/internal/targets"
)

// Exploration settings shared by every workload: the per-path
// instruction budget of cmd/c9 and the lock-step sim's default quantum.
const (
	maxStateSteps = 2_000_000
	quantum       = 2000
)

// Workload is one named exploration the benchmark measures.
type Workload struct {
	Name string
	Why  string
	// Target builds the program under test.
	Target func() targets.Target
	// Workers > 1 runs the lock-step cluster sim; 1 drives a single
	// explorer directly.
	Workers   int
	DataPlane string
	// Expect lists the accepted outcomes.
	Expect []Outcome
	// ByHand keeps the workload out of BENCHMARK.json: it runs by name
	// but no gate compares it between commits.
	ByHand bool
}

// Outcome is one accepted exploration result.
type Outcome struct {
	Paths, Errors, Hangs, Kills uint64
	Coverage                    uint64
}

// printf5 is the outcome of exhausting targets.Printf(5), on one node or
// on a cluster.
var printf5 = []Outcome{{Paths: 16713, Coverage: 97}}

// Workloads is the benchmark's fixed workload set.
var Workloads = []Workload{
	{
		Name:   "memcached-1w",
		Why:    "solver search: two symbolic packets, backtracking search holds almost all CPU",
		Target: func() targets.Target { return targets.Memcached(targets.MCDriverTwoSymbolicPackets) },
		// The seed pin keeps 10 budget kills; closing the completeness
		// hole (no kills at a raised backtrack budget) yields 322 paths.
		Expect:  []Outcome{{Paths: 312, Kills: 10, Coverage: 147}, {Paths: 322, Coverage: 147}},
		Workers: 1,
		// One ~20 s sample fills a run, and its time follows the host's
		// speed drift (medians 34% apart between sets of runs), too far
		// for any bound a gate may use.
		ByHand: true,
	},
	{
		Name:    "printf5-1w",
		Why:     "path breadth: 16713 paths where the solver's fast tiers answer nearly every query",
		Target:  func() targets.Target { return targets.Printf(5) },
		Expect:  printf5,
		Workers: 1,
	},
	{
		Name:      "printf5-4w-p2p",
		Why:       "cluster layer: 4-worker lock-step sim shipping jobs peer to peer, with replay",
		Target:    func() targets.Target { return targets.Printf(5) },
		Expect:    printf5,
		Workers:   4,
		DataPlane: cluster.DataPlaneP2P,
	},
	{
		Name:      "printf5-4w-depth",
		Why:       "cluster layer without shipping: depth-partitioned units, redundant upper region",
		Target:    func() targets.Target { return targets.Printf(5) },
		Expect:    printf5,
		Workers:   4,
		DataPlane: cluster.DataPlaneDepth,
	},
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	sort.Strings(names)
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Check is the correctness oracle for one measured sample. It returns
// every problem found; an empty list means the sample is correct.
func Check(w Workload, s *Sample) []string {
	var bad []string
	if s.Err != "" {
		return []string{s.Err}
	}
	if !s.Exhausted {
		bad = append(bad, "frontier not exhausted")
	}
	c := s.Counters
	got := Outcome{
		Paths: c["engine.paths"], Errors: c["engine.errors"], Hangs: c["engine.hangs"],
		Kills: c["engine.budget_kills"], Coverage: c["engine.coverage_lines"],
	}
	match := false
	for _, want := range w.Expect {
		match = match || got == want
	}
	if !match {
		bad = append(bad, fmt.Sprintf("outcome %+v not in expected table %+v", got, w.Expect))
	}
	if w.Workers > 1 && c["cluster.lb_payload_bytes"] != 0 {
		bad = append(bad, fmt.Sprintf("%d job payload bytes crossed the load balancer", c["cluster.lb_payload_bytes"]))
	}
	return bad
}
