package engine

import (
	"math/rand"
	"testing"

	"cloud9/internal/tree"
)

// linearCovOpt is the reference coverage-optimized searcher: two full
// passes over the frontier per pick, reading every weight fresh. The
// shipping CoverageOptimized must pick exactly what this picks.
type linearCovOpt struct {
	nodes []*tree.Node
	pos   map[*tree.Node]int
	rng   *rand.Rand
}

func newLinearCovOpt(seed int64) *linearCovOpt {
	return &linearCovOpt{pos: map[*tree.Node]int{}, rng: rand.New(rand.NewSource(seed))}
}

func (c *linearCovOpt) Name() string { return "cov-opt-linear" }

func (c *linearCovOpt) Add(n *tree.Node) {
	if n.CovYield == 0 && n.Parent != nil {
		n.CovYield = n.Parent.CovYield / 2
	}
	c.pos[n] = len(c.nodes)
	c.nodes = append(c.nodes, n)
}

func (c *linearCovOpt) Remove(n *tree.Node) {
	i, ok := c.pos[n]
	if !ok {
		return
	}
	last := len(c.nodes) - 1
	c.nodes[i] = c.nodes[last]
	c.pos[c.nodes[i]] = i
	c.nodes = c.nodes[:last]
	delete(c.pos, n)
}

func (c *linearCovOpt) Select() *tree.Node {
	for len(c.nodes) > 0 {
		total := 0.0
		for _, n := range c.nodes {
			total += weightOf(n)
		}
		pick := c.rng.Float64() * total
		var chosen *tree.Node
		for _, n := range c.nodes {
			pick -= weightOf(n)
			if pick <= 0 {
				chosen = n
				break
			}
		}
		if chosen == nil {
			chosen = c.nodes[len(c.nodes)-1]
		}
		c.Remove(chosen)
		if chosen.IsCandidate() {
			return chosen
		}
	}
	return nil
}

func (c *linearCovOpt) NotifyCoverage(*tree.Node, int) {}

func (c *linearCovOpt) NotifyGlobalCoverage(newLines int) {
	if newLines == 0 {
		return
	}
	for _, n := range c.nodes {
		n.CovYield /= 2
	}
}

// covOptWorld is one copy of a randomized frontier history. Two worlds
// replay the same operations on disjoint nodes (the strategies mutate
// node yields, so they must not share them) and report picks by index.
type covOptWorld struct {
	s     Strategy
	nodes []*tree.Node
	index map[*tree.Node]int
	live  []int // indices added and not yet selected or removed
}

func (w *covOptWorld) add(parent int) {
	n := &tree.Node{}
	if parent >= 0 {
		n.Parent = w.nodes[parent]
		n.Depth = n.Parent.Depth + 1
	}
	w.index[n] = len(w.nodes)
	w.nodes = append(w.nodes, n)
	w.live = append(w.live, len(w.nodes)-1)
	w.s.Add(n)
}

func (w *covOptWorld) drop(i int) {
	for k, j := range w.live {
		if j == i {
			w.live = append(w.live[:k], w.live[k+1:]...)
			return
		}
	}
}

// selectIdx selects a node and returns its index (-1 when empty).
func (w *covOptWorld) selectIdx() int {
	n := w.s.Select()
	if n == nil {
		return -1
	}
	i := w.index[n]
	w.drop(i)
	return i
}

// runCovOptEquivalence drives two worlds through one random history of
// Add / Remove / Select / NotifyGlobalCoverage and fails on the first
// differing pick. Explored nodes are credited integer yields exactly as
// the explorer does, and children inherit them halved.
func runCovOptEquivalence(t *testing.T, seed int64, a, b Strategy) {
	t.Helper()
	wa := &covOptWorld{s: a, index: map[*tree.Node]int{}}
	wb := &covOptWorld{s: b, index: map[*tree.Node]int{}}
	both := func(f func(w *covOptWorld)) { f(wa); f(wb) }
	ops := rand.New(rand.NewSource(seed))
	both(func(w *covOptWorld) { w.add(-1) })
	for step := 0; step < 4000; step++ {
		switch r := ops.Intn(100); {
		case r < 55: // explore: select, credit yield, add children
			ia, ib := wa.selectIdx(), wb.selectIdx()
			if ia != ib {
				t.Fatalf("seed %d step %d: picked %d, reference picked %d", seed, step, ia, ib)
			}
			if ia < 0 {
				both(func(w *covOptWorld) { w.add(-1) })
				continue
			}
			credit := 0.0
			if ops.Intn(4) == 0 {
				credit = float64(ops.Intn(6))
			}
			kids := 1 + ops.Intn(2)
			if len(wa.live) > 600 {
				kids = ops.Intn(2)
			}
			both(func(w *covOptWorld) {
				w.nodes[ia].CovYield += credit
				for k := 0; k < kids; k++ {
					w.add(ia)
				}
			})
		case r < 70: // transfer away or kill: Remove a random live node
			if len(wa.live) == 0 {
				continue
			}
			i := wa.live[ops.Intn(len(wa.live))]
			both(func(w *covOptWorld) {
				w.s.Remove(w.nodes[i])
				w.drop(i)
			})
		case r < 78: // a live node dies without Remove: a stale slot
			if len(wa.live) == 0 {
				continue
			}
			i := wa.live[ops.Intn(len(wa.live))]
			both(func(w *covOptWorld) {
				w.nodes[i].Life = tree.Dead
				w.drop(i)
			})
		case r < 84: // cluster coverage grew (0 must be a no-op)
			lines := ops.Intn(3)
			both(func(w *covOptWorld) {
				w.s.(GlobalCoverageAware).NotifyGlobalCoverage(lines)
			})
		default: // an orphan import with its own yield
			y := float64(ops.Intn(9))
			both(func(w *covOptWorld) {
				w.add(-1)
				n := w.nodes[len(w.nodes)-1]
				w.s.Remove(n)
				n.CovYield = y
				w.s.Add(n)
			})
		}
	}
	for {
		ia, ib := wa.selectIdx(), wb.selectIdx()
		if ia != ib {
			t.Fatalf("seed %d drain: picked %d, reference picked %d", seed, ia, ib)
		}
		if ia < 0 {
			return
		}
	}
}

// TestCoverageOptimizedMatchesLinearScan: the sum-tree sampler picks
// the identical node sequence as the two-pass linear scan it replaced,
// on its own and as the cov-opt half of an interleave.
func TestCoverageOptimizedMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		runCovOptEquivalence(t, seed, NewCoverageOptimized(seed), newLinearCovOpt(seed))
		runCovOptEquivalence(t, seed,
			NewInterleaved(NewDFS(), NewCoverageOptimized(seed)),
			NewInterleaved(NewDFS(), newLinearCovOpt(seed)))
	}
}

// TestSumTreeSearch pins the prefix rule on exact weights: the first
// slot whose prefix sum reaches pick, the capacity's last leaf above
// the total.
func TestSumTreeSearch(t *testing.T) {
	var st sumTree
	for i, w := range []float64{1, 2.5, 1, 4, 1.5} {
		st.set(i, w)
	}
	if got := st.total(); got != 10 {
		t.Fatalf("total = %v, want 10", got)
	}
	for _, c := range []struct {
		pick float64
		want int
	}{{0, 0}, {1, 0}, {1.25, 1}, {3.5, 1}, {3.75, 2}, {4.5, 2}, {8.5, 3}, {9, 4}, {10, 4}} {
		if got := st.search(c.pick); got != c.want {
			t.Errorf("search(%v) = %d, want %d", c.pick, got, c.want)
		}
	}
	if got := st.search(10.5); got != 7 {
		t.Errorf("search above total = %d, want the last leaf of the capacity", got)
	}
	st.set(4, 0)
	st.set(1, 0)
	if got := st.total(); got != 6 {
		t.Fatalf("total after clearing = %v, want 6", got)
	}
}
