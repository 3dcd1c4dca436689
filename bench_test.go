package cloud9

// One benchmark per table/figure of the paper's evaluation (§7), plus
// ablation benches for the design decisions DESIGN.md calls out. Each
// bench runs a reduced-scale version of the corresponding experiment and
// reports the figure's key metric via b.ReportMetric; cmd/c9-repro runs
// the full-scale versions.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cloud9/internal/cfg"
	"cloud9/internal/cluster"
	"cloud9/internal/cvm"
	"cloud9/internal/engine"
	"cloud9/internal/expr"
	"cloud9/internal/obs"
	"cloud9/internal/posix"
	"cloud9/internal/solver"
	"cloud9/internal/targets"
	"cloud9/internal/tree"
)

func simConfig(b *testing.B, tgt targets.Target, workers int) cluster.SimConfig {
	b.Helper()
	return cluster.SimConfig{
		Workers:   workers,
		Entry:     "main",
		NewInterp: targets.Factory(tgt),
		Engine:    engine.Config{MaxStateSteps: 2_000_000},
		Quantum:   2000,
	}
}

// BenchmarkTable4_Targets compiles and smoke-runs the whole target
// inventory (Table 4).
func BenchmarkTable4_Targets(b *testing.B) {
	all := targets.All()
	for i := 0; i < b.N; i++ {
		for _, tgt := range all {
			if _, err := targets.Factory(tgt)(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(all)), "targets")
}

// BenchmarkFig7_MemcachedExhaustive measures virtual time to exhaust the
// two-symbolic-packet memcached test on a 4-worker cluster (Fig. 7).
func BenchmarkFig7_MemcachedExhaustive(b *testing.B) {
	tgt := targets.Memcached(targets.MCDriverTwoSymbolicPackets)
	var ticks, paths int
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunSim(simConfig(b, tgt, 4))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Exhausted {
			b.Fatal("not exhausted")
		}
		ticks = res.Ticks
		paths = int(res.Final.Paths)
	}
	b.ReportMetric(float64(ticks), "ticks")
	b.ReportMetric(float64(paths), "paths")
}

// BenchmarkFig8_PrintfCoverage measures virtual time to 80% line
// coverage of printf on 4 workers (Fig. 8).
func BenchmarkFig8_PrintfCoverage(b *testing.B) {
	tgt := targets.Printf(4)
	prog, err := posix.CompileTarget("printf.c", tgt.Source)
	if err != nil {
		b.Fatal(err)
	}
	goal := prog.CoverableLines() * 80 / 100
	var ticks int
	for i := 0; i < b.N; i++ {
		cfg := simConfig(b, tgt, 4)
		cfg.MaxTicks = 3000
		cfg.StopWhen = func(s cluster.Snapshot) bool { return s.Coverage >= goal }
		res, err := cluster.RunSim(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ticks = res.Ticks
	}
	b.ReportMetric(float64(ticks), "ticks-to-80pct")
}

// BenchmarkFig9_UsefulWork measures total useful work in a fixed
// virtual-time budget on 4 workers (Fig. 9).
func BenchmarkFig9_UsefulWork(b *testing.B) {
	tgt := targets.Memcached(targets.MCDriverTwoSymbolicPackets)
	var useful, perWorker uint64
	for i := 0; i < b.N; i++ {
		cfg := simConfig(b, tgt, 4)
		cfg.MaxTicks = 15
		res, err := cluster.RunSim(cfg)
		if err != nil {
			b.Fatal(err)
		}
		useful = res.Final.UsefulSteps
		perWorker = useful / 4
	}
	b.ReportMetric(float64(useful), "useful-instr")
	b.ReportMetric(float64(perWorker), "per-worker")
}

// BenchmarkFig10_UsefulWorkUtils is Fig. 9 for printf and test.
func BenchmarkFig10_UsefulWorkUtils(b *testing.B) {
	var useful uint64
	for i := 0; i < b.N; i++ {
		for _, tgt := range []targets.Target{targets.Printf(5), targets.TestUtil(3)} {
			cfg := simConfig(b, tgt, 4)
			cfg.MaxTicks = 15
			res, err := cluster.RunSim(cfg)
			if err != nil {
				b.Fatal(err)
			}
			useful += res.Final.UsefulSteps
		}
	}
	b.ReportMetric(float64(useful)/float64(b.N), "useful-instr")
}

// BenchmarkFig11_Coreutils runs the 1-vs-many-workers coverage
// comparison on one representative utility (Fig. 11).
func BenchmarkFig11_Coreutils(b *testing.B) {
	tgt := targets.Coreutils(7)[12] // coreutil-cut: option-gated arms
	prog, err := posix.CompileTarget("cut.c", tgt.Source)
	if err != nil {
		b.Fatal(err)
	}
	coverable := float64(prog.CoverableLines())
	var gain float64
	for i := 0; i < b.N; i++ {
		run := func(workers int) float64 {
			cfg := simConfig(b, tgt, workers)
			cfg.Quantum = 150
			cfg.MaxTicks = 4
			res, err := cluster.RunSim(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return 100 * float64(res.Final.Coverage) / coverable
		}
		gain = run(12) - run(1)
	}
	b.ReportMetric(gain, "coverage-gain-pp")
}

// BenchmarkFig12_TransferRate measures job-transfer activity during a
// balanced run (Fig. 12).
func BenchmarkFig12_TransferRate(b *testing.B) {
	tgt := targets.Memcached(targets.MCDriverTwoSymbolicPackets)
	var transferred int
	for i := 0; i < b.N; i++ {
		cfg := simConfig(b, tgt, 8)
		res, err := cluster.RunSim(cfg)
		if err != nil {
			b.Fatal(err)
		}
		transferred = res.Final.StatesTransferred
	}
	b.ReportMetric(float64(transferred), "states-transferred")
}

// BenchmarkFig13_LBDisabled compares useful work with continuous
// balancing against balancing disabled from tick 1 (Fig. 13).
func BenchmarkFig13_LBDisabled(b *testing.B) {
	tgt := targets.Memcached(targets.MCDriverTwoSymbolicPackets)
	var ratio float64
	for i := 0; i < b.N; i++ {
		run := func(disableAt int) uint64 {
			cfg := simConfig(b, tgt, 4)
			cfg.MaxTicks = 20
			cfg.DisableLBAtTick = disableAt
			res, err := cluster.RunSim(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return res.Final.UsefulSteps
		}
		with := run(0)
		without := run(1)
		ratio = float64(without) / float64(with)
	}
	b.ReportMetric(ratio, "no-lb-work-fraction")
}

// BenchmarkTable5_Memcached explores the two-symbolic-packet space
// exhaustively on one node (Table 5's "symbolic packets" row).
func BenchmarkTable5_Memcached(b *testing.B) {
	tgt := targets.Memcached(targets.MCDriverTwoSymbolicPackets)
	var paths uint64
	for i := 0; i < b.N; i++ {
		in, err := targets.Factory(tgt)()
		if err != nil {
			b.Fatal(err)
		}
		e, err := engine.New(in, "main", engine.Config{
			MaxStateSteps: 2_000_000,
			Strategy:      func(*tree.Tree, *cfg.Distance) engine.Strategy { return engine.NewDFS() },
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.RunToCompletion(0); err != nil {
			b.Fatal(err)
		}
		paths = e.Stats.PathsExplored
	}
	b.ReportMetric(float64(paths), "paths")
}

// BenchmarkTable6_Lighttpd runs the full fragmentation matrix (Table 6).
func BenchmarkTable6_Lighttpd(b *testing.B) {
	drivers := []string{
		targets.LHDriverSinglePacket,
		targets.LHDriverSplit26Plus2,
		targets.LHDriverManySmall,
	}
	var crashes int
	for i := 0; i < b.N; i++ {
		crashes = 0
		for _, version := range []int{12, 13} {
			for _, d := range drivers {
				in, err := targets.Factory(targets.Lighttpd(version, d))()
				if err != nil {
					b.Fatal(err)
				}
				e, err := engine.New(in, "main", engine.Config{MaxStateSteps: 2_000_000})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.RunToCompletion(0); err != nil {
					b.Fatal(err)
				}
				if e.Stats.Errors > 0 {
					crashes++
				}
			}
		}
	}
	b.ReportMetric(float64(crashes), "crashing-cells")
}

// ---- Hash-consing microbenches ----
//
// The expression layer is hash-consed: Hash(), Equal and the
// free-variable summaries are stamped at construction and read in O(1).
// Each bench below compares the interned fast path against the recursive
// reference implementation (Deep*), which is what every call used to cost
// before interning. These keep the ≥5× win visible in the bench
// trajectory.

var (
	benchSinkU64 uint64
	benchSinkInt int
)

// deepBenchExpr builds a linear expression chain of roughly 3n nodes with
// no constant-folding collapse, standing in for the deep path-condition
// terms real targets accumulate.
func deepBenchExpr(n int) *expr.Expr {
	e := expr.ZExt(expr.Var(0, "x"), expr.W32)
	for i := 1; i < n; i++ {
		v := expr.ZExt(expr.Var(uint64(i%8), "x"), expr.W32)
		e = expr.Xor(expr.Add(e, v), expr.Const(uint64(i)|1, expr.W32))
	}
	return e
}

// BenchmarkExprHash: cached structural hash vs. the full recursive walk.
func BenchmarkExprHash(b *testing.B) {
	e := deepBenchExpr(512)
	b.Run("interned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSinkU64 = e.Hash()
		}
	})
	b.Run("recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSinkU64 = e.DeepHash()
		}
	})
}

// BenchmarkSolverCacheKey measures computing a solver result-cache key
// (constraint-set hash combined with the query hash) the way
// Solver.check does, against recomputing every constraint hash
// recursively as the pre-interning implementation did.
func BenchmarkSolverCacheKey(b *testing.B) {
	cs := solver.EmptySet
	for i := uint64(0); i < 48; i++ {
		cs = cs.Append(expr.Ult(expr.Var(i, "v"), expr.Const(200, expr.W8)))
		cs = cs.Append(expr.Not(expr.Eq(expr.Var(i, "v"), expr.Var((i+1)%48, "v"))))
	}
	cond := expr.Eq(deepBenchExpr(64), expr.Const(99, expr.W32))
	b.Run("interned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSinkU64 = cs.Hash()*0x9e3779b97f4a7c15 ^ cond.Hash()
		}
	})
	cons := cs.Slice()
	b.Run("recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var h uint64
			for _, c := range cons {
				h = h*1099511628211 ^ c.DeepHash()
			}
			benchSinkU64 = h ^ cond.DeepHash()
		}
	})
}

// BenchmarkPartitionVars measures collecting per-constraint variable
// sets, the inner loop of independence partitioning, from the cached
// summaries vs. re-walking each constraint's DAG with a dedup map.
func BenchmarkPartitionVars(b *testing.B) {
	var cons []*expr.Expr
	for i := uint64(0); i < 64; i++ {
		lhs := expr.Add(
			expr.ZExt(expr.Var(i, "v"), expr.W32),
			expr.ZExt(expr.Var(i+1, "v"), expr.W32))
		cons = append(cons, expr.Ult(expr.Xor(lhs, deepBenchExpr(16)), expr.Const(500+i, expr.W32)))
	}
	b.Run("interned", func(b *testing.B) {
		var buf []uint64
		for i := 0; i < b.N; i++ {
			n := 0
			for _, c := range cons {
				buf = c.FreeVars().AppendIDs(buf[:0])
				n += len(buf)
			}
			benchSinkInt = n
		}
	})
	b.Run("recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, c := range cons {
				n += len(c.DeepVars(map[uint64]bool{}, nil))
			}
			benchSinkInt = n
		}
	})
}

// ---- Incremental solver benches ----
//
// The solver memoizes per-ConstraintSet solve state (flattened form,
// unit-propagation fixpoint, independence partition, witness model) and
// extends it on Append instead of reprocessing the whole set per query.
// Each bench compares the incremental path against the retained
// from-scratch reference pipeline on the same workload; both are gated
// by ci/bench_baseline.json.

// branchBenchChain builds a deep, satisfiable path condition over
// nvars byte variables: range bounds plus pairwise inequalities that
// link the variables into two-variable independence groups — the shape
// real path conditions converge to (many small groups accumulated over
// many branch sites; a query's cone is one or two groups while the set
// itself is hundreds deep).
func branchBenchChain(depth, nvars int) *solver.ConstraintSet {
	cs := solver.EmptySet
	for i := 0; i < depth; i++ {
		id := uint64(i % nvars)
		switch i % 4 {
		case 1:
			cs = cs.Append(expr.Not(expr.Eq(expr.Var(id, "v"), expr.Var(id^1, "v"))))
		case 3:
			cs = cs.Append(expr.Ule(expr.Const(uint64(i%3), expr.W8), expr.Var(id, "v")))
		default:
			cs = cs.Append(expr.Ult(expr.Var(id, "v"), expr.Const(uint64(100+i%100), expr.W8)))
		}
	}
	return cs
}

// BenchmarkBranchQuery measures one branch site (both directions of a
// condition) against a 256-deep path condition: the fused incremental
// Fork versus the two from-scratch queries every branch used to issue.
func BenchmarkBranchQuery(b *testing.B) {
	cs := branchBenchChain(256, 128)
	cond := func(i int) *expr.Expr {
		return expr.Eq(expr.Var(uint64(i%128), "v"), expr.Const(uint64(i%90), expr.W8))
	}
	b.Run("incremental", func(b *testing.B) {
		s := solver.New()
		if ok, err := s.CheckSat(cs); err != nil || !ok {
			b.Fatal("chain must be sat")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Fork(cs, cond(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("from-scratch", func(b *testing.B) {
		s := solver.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := cond(i)
			if _, err := s.ReferenceMayBeTrue(cs, q); err != nil {
				b.Fatal(err)
			}
			if _, err := s.ReferenceMayBeTrue(cs, expr.Not(q)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIntervalBranch measures a branch site whose condition is
// decidable from the incrementally maintained variable bounds alone: a
// 256-deep chain of range constraints pins every byte below 50, and the
// queried conditions compare those bytes against constants far outside
// that range. The interval tier answers both Fork directions from the
// memoized bounds with zero search; the reference path runs the full
// from-scratch pipeline twice per site. Gated by ci/bench_baseline.json.
func BenchmarkIntervalBranch(b *testing.B) {
	cs := solver.EmptySet
	for i := 0; i < 256; i++ {
		cs = cs.Append(expr.Ult(expr.Var(uint64(i%64), "v"), expr.Const(50, expr.W8)))
	}
	cond := func(i int) *expr.Expr {
		// v < 200+i%50 — true for every v in [0,49], decided by bounds.
		return expr.Ult(expr.Var(uint64(i%64), "v"), expr.Const(uint64(200+i%50), expr.W8))
	}
	b.Run("interval", func(b *testing.B) {
		s := solver.New()
		if ok, err := s.CheckSat(cs); err != nil || !ok {
			b.Fatal("chain must be sat")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr, fl, err := s.Fork(cs, cond(i))
			if err != nil || !tr || fl {
				b.Fatalf("bounds must decide the branch: %v %v %v", tr, fl, err)
			}
		}
	})
	b.Run("full-search", func(b *testing.B) {
		s := solver.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := cond(i)
			if _, err := s.ReferenceMayBeTrue(cs, q); err != nil {
				b.Fatal(err)
			}
			if _, err := s.ReferenceMayBeTrue(cs, expr.Not(q)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalAppendSolve measures growing a path condition to
// depth 256 with a feasibility check after every append — the
// interpreter's access pattern. The incremental path extends the
// memoized parent state per append (O(new cone)); the from-scratch
// path re-flattens, re-propagates and re-partitions the whole set
// (O(depth) per append, O(depth²) per path).
func BenchmarkIncrementalAppendSolve(b *testing.B) {
	const depth = 256
	next := func(cs *solver.ConstraintSet, i int) *solver.ConstraintSet {
		id := uint64(i % 64)
		if i%2 == 0 {
			return cs.Append(expr.Ult(expr.Var(id, "v"), expr.Const(uint64(100+i%100), expr.W8)))
		}
		return cs.Append(expr.Not(expr.Eq(expr.Var(id, "v"), expr.Var(id^1, "v"))))
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := solver.New()
			cs := solver.EmptySet
			for d := 0; d < depth; d++ {
				cs = next(cs, d)
				if ok, err := s.CheckSat(cs); err != nil || !ok {
					b.Fatal("chain must stay sat")
				}
			}
		}
	})
	b.Run("from-scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := solver.New()
			cs := solver.EmptySet
			for d := 0; d < depth; d++ {
				cs = next(cs, d)
				if ok, err := s.ReferenceMayBeTrue(cs, nil); err != nil || !ok {
					b.Fatal("chain must stay sat")
				}
			}
		}
	})
}

// ---- Ablation benches (design decisions from DESIGN.md §4) ----

// BenchmarkAblation_SolverCaches compares a shared solver (caches warm
// across queries, the Cloud9 configuration) with a fresh solver per
// query (caches ablated).
func BenchmarkAblation_SolverCaches(b *testing.B) {
	mkConstraints := func() *solver.ConstraintSet {
		cs := solver.EmptySet
		for i := uint64(0); i < 12; i++ {
			cs = cs.Append(expr.Ult(expr.Var(i, "v"), expr.Const(200, expr.W8)))
			cs = cs.Append(expr.Not(expr.Eq(expr.Var(i, "v"), expr.Var((i+1)%12, "v"))))
		}
		return cs
	}
	b.Run("shared", func(b *testing.B) {
		s := solver.New()
		cs := mkConstraints()
		for i := 0; i < b.N; i++ {
			q := expr.Eq(expr.Var(uint64(i%12), "v"), expr.Const(uint64(i%200), expr.W8))
			if _, err := s.MayBeTrue(cs, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		cs := mkConstraints()
		for i := 0; i < b.N; i++ {
			s := solver.New()
			q := expr.Eq(expr.Var(uint64(i%12), "v"), expr.Const(uint64(i%200), expr.W8))
			if _, err := s.MayBeTrue(cs, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_JobTreeEncoding compares the aggregated job-trie
// wire size against flat per-path encoding (§3.2's shared-prefix
// optimization).
func BenchmarkAblation_JobTreeEncoding(b *testing.B) {
	// Deep tree with heavily shared prefixes, as real frontiers have.
	var paths [][]uint8
	prefix := make([]uint8, 24)
	for i := 0; i < 64; i++ {
		p := append([]uint8(nil), prefix...)
		for bit := 5; bit >= 0; bit-- {
			p = append(p, uint8(i>>bit)&1)
		}
		paths = append(paths, p)
	}
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			jt := cluster.BuildJobTree(paths)
			if jt.Count() != len(paths) {
				b.Fatal("count mismatch")
			}
		}
	})
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			total := 0
			for _, p := range paths {
				total += len(p)
			}
			if total == 0 {
				b.Fatal("no data")
			}
		}
	})
	// Trie node count vs flat byte count as a size proxy.
	jt := cluster.BuildJobTree(paths)
	trieNodes := 0
	var count func(*cluster.JobTree)
	count = func(n *cluster.JobTree) {
		trieNodes++
		for _, k := range n.Kids {
			count(k)
		}
	}
	count(jt)
	flat := 0
	for _, p := range paths {
		flat += len(p)
	}
	b.ReportMetric(float64(trieNodes), "trie-nodes")
	b.ReportMetric(float64(flat), "flat-bytes")
}

// BenchmarkAblation_ReplayFromAncestor measures replay cost when jobs
// materialize from the nearest fence vs. always from the root (§8's
// VeriSoft comparison: replaying from the frontier avoids re-executing
// long shared prefixes).
func BenchmarkAblation_ReplayFromAncestor(b *testing.B) {
	tgt := targets.Printf(4)
	for i := 0; i < b.N; i++ {
		in, err := targets.Factory(tgt)()
		if err != nil {
			b.Fatal(err)
		}
		a, err := engine.New(in, "main", engine.Config{
			MaxStateSteps: 2_000_000,
			Strategy:      func(*tree.Tree, *cfg.Distance) engine.Strategy { return engine.NewBFS() },
		})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 20; j++ {
			if _, err := a.Step(); err != nil {
				b.Fatal(err)
			}
		}
		jobs := a.ExportCandidates(a.Tree.NumCandidates() - 1)

		in2, err := targets.Factory(tgt)()
		if err != nil {
			b.Fatal(err)
		}
		dst, err := engine.New(in2, "main", engine.Config{
			MaxStateSteps: 2_000_000,
			Strategy:      func(*tree.Tree, *cfg.Distance) engine.Strategy { return engine.NewBFS() },
		})
		if err != nil {
			b.Fatal(err)
		}
		dst.DropRoot()
		dst.ImportJobs(jobs)
		if _, err := dst.RunToCompletion(0); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(dst.Stats.ReplaySteps), "replay-instr")
		b.ReportMetric(float64(dst.Stats.UsefulSteps), "useful-instr")
	}
}

// BenchmarkStrategyRemove measures removing one node from a 4096-node
// frontier (then re-adding it, as job export + import does). The indexed
// variants are the shipping DFS/BFS Remove (position map + tombstone);
// the linear variants replicate the pre-index splice-scan they replaced,
// which made heavy job transfer quadratic in the frontier size. Gated by
// ci/bench_baseline.json.
func BenchmarkStrategyRemove(b *testing.B) {
	const frontier = 4096
	nodes := make([]*tree.Node, frontier)
	for i := range nodes {
		nodes[i] = &tree.Node{Depth: i}
	}
	// Fibonacci-hash index sequence: targets land uniformly over the
	// frontier so the linear variants pay their expected half-scan.
	pick := func(i int) *tree.Node {
		return nodes[(uint64(i)*0x9e3779b97f4a7c15)>>52%frontier]
	}
	b.Run("dfs-indexed", func(b *testing.B) {
		d := engine.NewDFS()
		for _, n := range nodes {
			d.Add(n)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := pick(i)
			d.Remove(n)
			d.Add(n)
		}
	})
	b.Run("dfs-linear", func(b *testing.B) {
		var stack []*tree.Node
		stack = append(stack, nodes...)
		remove := func(n *tree.Node) {
			for i, c := range stack {
				if c == n {
					stack = append(stack[:i], stack[i+1:]...)
					return
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := pick(i)
			remove(n)
			stack = append(stack, n)
		}
	})
	b.Run("bfs-indexed", func(b *testing.B) {
		q := engine.NewBFS()
		for _, n := range nodes {
			q.Add(n)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := pick(i)
			q.Remove(n)
			q.Add(n)
		}
	})
	b.Run("bfs-linear", func(b *testing.B) {
		var queue []*tree.Node
		queue = append(queue, nodes...)
		remove := func(n *tree.Node) {
			for i, c := range queue {
				if c == n {
					queue = append(queue[:i], queue[i+1:]...)
					return
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := pick(i)
			remove(n)
			queue = append(queue, n)
		}
	})
}

// BenchmarkCovOptSelect measures one coverage-optimized Select followed
// by re-adding the picked node, on a 4096-node frontier whose yields are
// integers halved down lineages as the engine produces them. The
// fenwick arm is the shipping sum-tree sampler; the linear arm
// replicates the two full weight passes per pick it replaced. Gated by
// ci/bench_baseline.json.
func BenchmarkCovOptSelect(b *testing.B) {
	const frontier = 4096
	nodes := make([]*tree.Node, frontier)
	for i := range nodes {
		nodes[i] = &tree.Node{Depth: i, CovYield: float64(i%7) / float64(uint(1)<<(i%5))}
	}
	b.Run("fenwick", func(b *testing.B) {
		c := engine.NewCoverageOptimized(1)
		for _, n := range nodes {
			c.Add(n)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Add(c.Select())
		}
	})
	b.Run("linear", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		list := append([]*tree.Node(nil), nodes...)
		pos := make(map[*tree.Node]int, frontier)
		for i, n := range list {
			pos[n] = i
		}
		weight := func(n *tree.Node) float64 { return 1 + n.CovYield }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			total := 0.0
			for _, n := range list {
				total += weight(n)
			}
			pick := rng.Float64() * total
			at := len(list) - 1
			for j, n := range list {
				if pick -= weight(n); pick <= 0 {
					at = j
					break
				}
			}
			n, last := list[at], len(list)-1
			list[at] = list[last]
			pos[list[at]] = at
			list = list[:last]
			delete(pos, n)
			pos[n] = len(list)
			list = append(list, n)
		}
	})
}

// distBenchProg builds the synthetic program BenchmarkDistRecompute
// analyzes: main's basic-block chain calls nLeaves private leaf
// functions, each a straight chain of depth blocks with one source
// line per block. A coverage delta inside one leaf dirties exactly
// that leaf and main — the shape the incremental md2u solver exploits.
func distBenchProg(nLeaves, depth int) *cvm.Program {
	p := cvm.NewProgram("distbench")
	line := 1
	addLine := func(b *cvm.Block) {
		b.Instrs = append(b.Instrs, cvm.Instr{Op: cvm.OpConst, W: expr.W8, Line: line})
		if line > p.MaxLine {
			p.MaxLine = line
		}
		line++
	}
	for i := 0; i < nLeaves; i++ {
		fn := &cvm.Func{Name: fmt.Sprintf("leaf%d", i), NumRegs: 4}
		for j := 0; j < depth; j++ {
			b := &cvm.Block{Index: j}
			addLine(b)
			if j < depth-1 {
				b.Instrs = append(b.Instrs, cvm.Instr{Op: cvm.OpBr, Imm: int64(j + 1)})
			} else {
				b.Instrs = append(b.Instrs, cvm.Instr{Op: cvm.OpRet, A: -1})
			}
			fn.Blocks = append(fn.Blocks, b)
		}
		p.Funcs[fn.Name] = fn
	}
	main := &cvm.Func{Name: "main", NumRegs: 4}
	for i := 0; i <= nLeaves; i++ {
		b := &cvm.Block{Index: i}
		addLine(b)
		if i < nLeaves {
			b.Instrs = append(b.Instrs,
				cvm.Instr{Op: cvm.OpCall, A: -1, Sym: fmt.Sprintf("leaf%d", i)},
				cvm.Instr{Op: cvm.OpBr, Imm: int64(i + 1)})
		} else {
			b.Instrs = append(b.Instrs, cvm.Instr{Op: cvm.OpRet, A: -1})
		}
		main.Blocks = append(main.Blocks, b)
	}
	p.Funcs["main"] = main
	return p
}

// distBenchLines returns the coverage-delta order both sides of the
// bench apply: every coverable line, deterministically shuffled so
// consecutive deltas land in different functions.
func distBenchLines(g *cfg.Graph) []int {
	var lines []int
	for ln := range g.LineOwners {
		lines = append(lines, ln)
	}
	sort.Ints(lines)
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return lines
}

// BenchmarkDistRecompute measures re-deriving minimum-distance-to-
// uncovered after one coverage delta on a 65-function program: the
// incremental oracle (re-solves only the dirtied function and its
// call-graph ancestors, everything else memoized) against the
// from-scratch whole-program BFS reference (what every delta would cost
// without memoization). Gated ≥5x by ci/bench_baseline.json.
func BenchmarkDistRecompute(b *testing.B) {
	prog := distBenchProg(64, 8)
	g := cfg.BuildGraph(prog)
	lines := distBenchLines(g)
	b.Run("incremental", func(b *testing.B) {
		d := cfg.NewDistance(g)
		d.FuncDist("main") // initial full solve paid outside the loop
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(lines) == 0 && i > 0 {
				// Deltas exhausted: restart from an uncovered program.
				b.StopTimer()
				d = cfg.NewDistance(g)
				d.FuncDist("main")
				b.StartTimer()
			}
			d.CoverLine(lines[i%len(lines)])
			if d.FuncDist("main") < 0 {
				b.Fatal("impossible distance")
			}
		}
	})
	b.Run("from-scratch", func(b *testing.B) {
		covered := map[int]bool{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(lines) == 0 && i > 0 {
				b.StopTimer()
				covered = map[int]bool{}
				b.StartTimer()
			}
			covered[lines[i%len(lines)]] = true
			ref := cfg.ScratchDist(g, func(ln int) bool { return covered[ln] })
			if ref["main"][0] < 0 {
				b.Fatal("impossible distance")
			}
		}
	})
}

// BenchmarkObsCounter measures the metrics hot path: the held-handle
// atomic increment every instrumented site uses (counters are resolved
// once at construction — see internal/cluster.NewWorker) against
// resolving the counter through the registry's name map on every
// increment. The gate in ci/bench_baseline.json pins the held-handle
// discipline: if instrumentation ever regresses to per-event lookups,
// the ratio collapses and CI fails — this is what keeps the solver-tier
// gates (BranchQuery, IncrementalAppendSolve) at their ≥5x floors after
// the observability plane landed on those paths.
func BenchmarkObsCounter(b *testing.B) {
	b.Run("held", func(b *testing.B) {
		r := obs.NewRegistry()
		c := r.Counter(obs.MClusterJobsSent)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("lookup", func(b *testing.B) {
		r := obs.NewRegistry()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Counter(obs.MClusterJobsSent).Inc()
		}
	})
}

// BenchmarkPeerShip compares the two job-shipping data planes by the
// wire work one batch costs: p2p is a single encode→decode hop
// (sender→receiver, the LB sees metadata only), relay is two hops
// (sender→LB, LB→receiver) carrying the full payload both times. The
// payload-bytes/lb-byte metric records how many job payload bytes move
// per byte the LB itself must carry — the decentralization win the CI
// bench gate pins (p2p must stay ≥1.5x cheaper than relay).
func BenchmarkPeerShip(b *testing.B) {
	// Deep frontier with heavily shared prefixes, as real transfers have.
	var paths [][]uint8
	prefix := make([]uint8, 24)
	for i := 0; i < 64; i++ {
		p := append([]uint8(nil), prefix...)
		for bit := 5; bit >= 0; bit-- {
			p = append(p, uint8(i>>bit)&1)
		}
		paths = append(paths, p)
	}
	msg := cluster.Message{Kind: cluster.MsgJobs, From: 1, Epoch: 7, Seq: 3,
		Jobs: cluster.BuildJobTree(paths)}
	hop := func(b *testing.B, m cluster.Message) cluster.Message {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
			b.Fatal(err)
		}
		var out cluster.Message
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			b.Fatal(err)
		}
		return out
	}
	size := func(m cluster.Message) int {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
			b.Fatal(err)
		}
		return buf.Len()
	}
	payload := size(msg)
	// Under p2p the LB carries only the balance directive naming
	// (src, dst, count); under relay it carries the payload twice.
	meta := size(cluster.Message{Kind: cluster.MsgTransferReq, Dst: 2, NJobs: 64})
	b.Run("p2p", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out := hop(b, msg); out.Jobs.Count() != len(paths) {
				b.Fatal("payload lost in transit")
			}
		}
		b.ReportMetric(float64(payload)/float64(meta), "payload-bytes/lb-byte")
	})
	b.Run("relay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			viaLB := hop(b, msg)                                      // sender → LB
			if out := hop(b, viaLB); out.Jobs.Count() != len(paths) { // LB → receiver
				b.Fatal("payload lost in transit")
			}
		}
		b.ReportMetric(0.5, "payload-bytes/lb-byte")
	})
}
