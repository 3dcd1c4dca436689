// Package engine implements the single-node symbolic exploration loop:
// search strategies over the execution tree, candidate selection, job
// replay (materialization of virtual nodes), coverage accounting and
// test-case generation. The cluster layer drives one engine per worker.
package engine

import (
	"math/rand"

	"cloud9/internal/tree"
)

// Strategy picks the next candidate node to explore. Implementations are
// the policies of §3.3; the tree/worker mechanics are the mechanism.
type Strategy interface {
	Name() string
	// Add registers a new candidate node.
	Add(n *tree.Node)
	// Remove unregisters a node (explored, transferred, or dead).
	Remove(n *tree.Node)
	// Select returns the next node to explore (nil when empty).
	Select() *tree.Node
	// NotifyCoverage informs the strategy that exploring n yielded
	// newLines newly covered lines (coverage-optimized uses this).
	NotifyCoverage(n *tree.Node, newLines int)
}

// GlobalCoverageAware is implemented by strategies that adapt to
// cluster-wide coverage growth: the worker forwards the number of lines
// newly ORed into its local vector from the global overlay (§3.3's
// global strategy portal), so a coverage-driven policy can discount
// yield that the rest of the cluster has already banked.
type GlobalCoverageAware interface {
	NotifyGlobalCoverage(newLines int)
}

// ---- DFS ----

// DFS explores deepest-first (a stack). Low memory, poor diversity.
// Remove is O(1): the position index tombstones the slot (set to nil)
// instead of scanning and splicing — under heavy job transfer every
// export used to pay a linear scan, quadratic in the frontier size.
type DFS struct {
	stack []*tree.Node
	pos   map[*tree.Node]int
}

// NewDFS returns a depth-first strategy.
func NewDFS() *DFS { return &DFS{pos: map[*tree.Node]int{}} }

// Name implements Strategy.
func (d *DFS) Name() string { return "dfs" }

// Add implements Strategy.
func (d *DFS) Add(n *tree.Node) {
	d.pos[n] = len(d.stack)
	d.stack = append(d.stack, n)
}

// Remove implements Strategy.
func (d *DFS) Remove(n *tree.Node) {
	if i, ok := d.pos[n]; ok {
		d.stack[i] = nil
		delete(d.pos, n)
	}
}

// Select implements Strategy.
func (d *DFS) Select() *tree.Node {
	for len(d.stack) > 0 {
		n := d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
		if n == nil {
			continue // tombstone of a removed node
		}
		delete(d.pos, n)
		if n.IsCandidate() {
			return n
		}
	}
	return nil
}

// NotifyCoverage implements Strategy.
func (d *DFS) NotifyCoverage(*tree.Node, int) {}

// ---- BFS ----

// BFS explores shallowest-first (a queue). Remove tombstones via the
// position index (same O(1) trick as DFS); the head cursor advances
// without reslicing so indices stay valid, and the buffer is compacted
// once the consumed prefix dominates it.
type BFS struct {
	queue []*tree.Node
	head  int
	pos   map[*tree.Node]int
}

// NewBFS returns a breadth-first strategy.
func NewBFS() *BFS { return &BFS{pos: map[*tree.Node]int{}} }

// Name implements Strategy.
func (b *BFS) Name() string { return "bfs" }

// Add implements Strategy.
func (b *BFS) Add(n *tree.Node) {
	b.pos[n] = len(b.queue)
	b.queue = append(b.queue, n)
}

// Remove implements Strategy.
func (b *BFS) Remove(n *tree.Node) {
	if i, ok := b.pos[n]; ok {
		b.queue[i] = nil
		delete(b.pos, n)
	}
}

// compact drops the consumed prefix, shifting indices down (amortized
// O(1) per operation: it runs only when half the buffer is dead).
func (b *BFS) compact() {
	if b.head < 1024 || b.head < len(b.queue)/2 {
		return
	}
	b.queue = append(b.queue[:0], b.queue[b.head:]...)
	for n, i := range b.pos {
		b.pos[n] = i - b.head
	}
	b.head = 0
}

// Select implements Strategy.
func (b *BFS) Select() *tree.Node {
	for b.head < len(b.queue) {
		n := b.queue[b.head]
		b.queue[b.head] = nil
		b.head++
		if n == nil {
			continue // tombstone of a removed node
		}
		delete(b.pos, n)
		if n.IsCandidate() {
			b.compact()
			return n
		}
	}
	b.queue = b.queue[:0]
	b.head = 0
	return nil
}

// NotifyCoverage implements Strategy.
func (b *BFS) NotifyCoverage(*tree.Node, int) {}

// ---- Uniform random ----

// Random picks a uniformly random candidate.
type Random struct {
	nodes []*tree.Node
	pos   map[*tree.Node]int
	rng   *rand.Rand
}

// NewRandom returns a uniform-random strategy.
func NewRandom(seed int64) *Random {
	return &Random{pos: map[*tree.Node]int{}, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (r *Random) Name() string { return "random" }

// Add implements Strategy.
func (r *Random) Add(n *tree.Node) {
	r.pos[n] = len(r.nodes)
	r.nodes = append(r.nodes, n)
}

// Remove implements Strategy.
func (r *Random) Remove(n *tree.Node) {
	i, ok := r.pos[n]
	if !ok {
		return
	}
	last := len(r.nodes) - 1
	r.nodes[i] = r.nodes[last]
	r.pos[r.nodes[i]] = i
	r.nodes = r.nodes[:last]
	delete(r.pos, n)
}

// Select implements Strategy.
func (r *Random) Select() *tree.Node {
	for len(r.nodes) > 0 {
		i := r.rng.Intn(len(r.nodes))
		n := r.nodes[i]
		r.Remove(n)
		if n.IsCandidate() {
			return n
		}
	}
	return nil
}

// NotifyCoverage implements Strategy.
func (r *Random) NotifyCoverage(*tree.Node, int) {}

// ---- Random path ----

// RandomPath walks the tree from the root, choosing a random child with
// candidates below it, until reaching a candidate — KLEE's random-path
// searcher. It favors shallow, rarely visited subtrees, countering the
// depth bias of per-state uniform selection.
type RandomPath struct {
	t   *tree.Tree
	rng *rand.Rand
}

// NewRandomPath returns a random-path strategy over t.
func NewRandomPath(t *tree.Tree, seed int64) *RandomPath {
	return &RandomPath{t: t, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (r *RandomPath) Name() string { return "random-path" }

// Add implements Strategy (tree counters already track candidates).
func (r *RandomPath) Add(*tree.Node) {}

// Remove implements Strategy.
func (r *RandomPath) Remove(*tree.Node) {}

// Select implements Strategy. Allocation-free: it counts the children
// with candidates below them, draws k, then walks to the k-th one.
func (r *RandomPath) Select() *tree.Node {
	n := r.t.Root
	if n.NumCandidatesBelow() == 0 {
		return nil
	}
	for {
		if n.IsCandidate() {
			return n
		}
		// Choose among children with candidates, weighted equally
		// (KLEE's random-path gives each subtree equal probability).
		live := 0
		for _, ch := range n.Children {
			if ch != nil && ch.NumCandidatesBelow() > 0 {
				live++
			}
		}
		if live == 0 {
			return nil
		}
		k := r.rng.Intn(live)
		for _, ch := range n.Children {
			if ch != nil && ch.NumCandidatesBelow() > 0 {
				if k == 0 {
					n = ch
					break
				}
				k--
			}
		}
	}
}

// NotifyCoverage implements Strategy.
func (r *RandomPath) NotifyCoverage(*tree.Node, int) {}

// ---- Coverage-optimized ----

// CoverageOptimized weights candidates by how productive their lineage
// has been at uncovering new lines, then samples proportionally —
// an adaptation of KLEE's coverage-optimized searcher to a setting
// without static CFG distances (documented substitution: the paper
// weighs states by estimated distance to an uncovered line; we weigh by
// observed recent coverage yield, which drives the same feedback loop).
//
// Sampling is O(log n): each frontier slot's weight is cached in a sum
// tree when the node is added, and a pick is one root-to-leaf descent.
type CoverageOptimized struct {
	nodes []*tree.Node
	pos   map[*tree.Node]int
	w     sumTree // w leaf i = weightOf(nodes[i])
	// stale marks the cached weights out of date after a global
	// coverage decay; the next Select re-reads them.
	stale bool
	rng   *rand.Rand
}

// NewCoverageOptimized returns a coverage-feedback strategy.
func NewCoverageOptimized(seed int64) *CoverageOptimized {
	return &CoverageOptimized{pos: map[*tree.Node]int{}, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Strategy.
func (c *CoverageOptimized) Name() string { return "cov-opt" }

func weightOf(n *tree.Node) float64 { return 1 + n.CovYield }

// Add implements Strategy.
func (c *CoverageOptimized) Add(n *tree.Node) {
	// Children inherit half their parent's yield, decaying stale signal —
	// but only when the node has none yet: re-Adds (a SetStrategy
	// re-seed) must not overwrite yield that global decay has already
	// discounted.
	if n.CovYield == 0 && n.Parent != nil {
		n.CovYield = n.Parent.CovYield / 2
	}
	c.pos[n] = len(c.nodes)
	c.nodes = append(c.nodes, n)
	c.w.set(len(c.nodes)-1, weightOf(n))
}

// Remove implements Strategy. The last slot moves into the vacated one.
func (c *CoverageOptimized) Remove(n *tree.Node) {
	i, ok := c.pos[n]
	if !ok {
		return
	}
	last := len(c.nodes) - 1
	c.nodes[i] = c.nodes[last]
	c.pos[c.nodes[i]] = i
	c.nodes[last] = nil
	c.nodes = c.nodes[:last]
	delete(c.pos, n)
	if i != last {
		c.w.set(i, c.w.get(last))
	}
	c.w.set(last, 0)
}

// Select implements Strategy: it draws pick = U[0,1)·total and takes the
// first slot whose weight prefix sum reaches pick (the last slot if
// rounding leaves pick above every prefix).
func (c *CoverageOptimized) Select() *tree.Node {
	if c.stale {
		c.w.rebuild(len(c.nodes), func(i int) float64 { return weightOf(c.nodes[i]) })
		c.stale = false
	}
	for len(c.nodes) > 0 {
		i := c.w.search(c.rng.Float64() * c.w.total())
		if i >= len(c.nodes) {
			i = len(c.nodes) - 1
		}
		chosen := c.nodes[i]
		c.Remove(chosen)
		if chosen.IsCandidate() {
			return chosen
		}
	}
	return nil
}

// NotifyCoverage implements Strategy. The CovYield this strategy
// weighs by is credited once by the explorer (see exploreNode), not
// here — updating it per-strategy would double-count under interleave.
func (c *CoverageOptimized) NotifyCoverage(*tree.Node, int) {}

// NotifyGlobalCoverage implements GlobalCoverageAware: when the rest of
// the cluster covers new lines, locally accumulated yield is partly
// stale (those lineages may be chasing lines already covered
// elsewhere), so every tracked weight decays by half. The sum tree is
// rebuilt from the nodes at the next Select, so every decay that lands
// on a shared node before then (another coverage-aware strategy's
// included) is seen.
func (c *CoverageOptimized) NotifyGlobalCoverage(newLines int) {
	if newLines == 0 {
		return
	}
	for _, n := range c.nodes {
		n.CovYield /= 2
	}
	c.stale = true
}

// sumTree holds per-slot weights in the leaves of a complete binary
// tree whose inner nodes store the sum of their two children, so the
// total is the root and a prefix search is one descent. Inner sums are
// recomputed from their children, never adjusted by deltas, so every
// sum depends only on the current leaves and not on update history.
type sumTree struct {
	size int       // leaf capacity, a power of two (0 when empty)
	sum  []float64 // heap layout: sum[1] is the root, leaves at [size, 2size)
}

func (t *sumTree) get(i int) float64 { return t.sum[t.size+i] }

func (t *sumTree) total() float64 {
	if t.size == 0 {
		return 0
	}
	return t.sum[1]
}

// set stores leaf i's weight and refreshes its ancestors, doubling the
// capacity first when i does not fit.
func (t *sumTree) set(i int, w float64) {
	if i >= t.size {
		t.grow(i + 1)
	}
	j := t.size + i
	t.sum[j] = w
	for j >>= 1; j > 0; j >>= 1 {
		t.sum[j] = t.sum[2*j] + t.sum[2*j+1]
	}
}

func (t *sumTree) grow(n int) {
	size := max(1, 2*t.size)
	for size < n {
		size *= 2
	}
	sum := make([]float64, 2*size)
	copy(sum[size:], t.sum[t.size:])
	t.size, t.sum = size, sum
	t.refresh()
}

// rebuild reloads leaves [0, n) from w, zeroes the rest, and recomputes
// every inner sum in O(capacity).
func (t *sumTree) rebuild(n int, w func(i int) float64) {
	for i := 0; i < t.size; i++ {
		v := 0.0
		if i < n {
			v = w(i)
		}
		t.sum[t.size+i] = v
	}
	t.refresh()
}

func (t *sumTree) refresh() {
	for j := t.size - 1; j > 0; j-- {
		t.sum[j] = t.sum[2*j] + t.sum[2*j+1]
	}
}

// search returns the first leaf whose prefix sum is at least pick. Above
// the total it returns the last leaf of the capacity, which callers
// clamp to their last slot.
func (t *sumTree) search(pick float64) int {
	j := 1
	for j < t.size {
		if l := t.sum[2*j]; l < pick {
			pick -= l
			j = 2*j + 1
		} else {
			j = 2 * j
		}
	}
	return j - t.size
}

// ---- Interleaved ----

// Interleaved alternates between strategies on successive selections —
// the configuration the paper's evaluation uses (random-path
// interleaved with coverage-optimized, §7).
type Interleaved struct {
	subs []Strategy
	next int
}

// NewInterleaved combines strategies round-robin.
func NewInterleaved(subs ...Strategy) *Interleaved { return &Interleaved{subs: subs} }

// Name implements Strategy.
func (i *Interleaved) Name() string { return "interleaved" }

// Add implements Strategy.
func (i *Interleaved) Add(n *tree.Node) {
	for _, s := range i.subs {
		s.Add(n)
	}
}

// Remove implements Strategy.
func (i *Interleaved) Remove(n *tree.Node) {
	for _, s := range i.subs {
		s.Remove(n)
	}
}

// Select implements Strategy.
func (i *Interleaved) Select() *tree.Node {
	for tries := 0; tries < len(i.subs); tries++ {
		s := i.subs[i.next]
		i.next = (i.next + 1) % len(i.subs)
		if n := s.Select(); n != nil {
			// Keep the other strategies' bookkeeping consistent.
			for _, o := range i.subs {
				if o != s {
					o.Remove(n)
				}
			}
			return n
		}
	}
	return nil
}

// NotifyCoverage implements Strategy.
func (i *Interleaved) NotifyCoverage(n *tree.Node, newLines int) {
	for _, s := range i.subs {
		s.NotifyCoverage(n, newLines)
	}
}

// NotifyGlobalCoverage implements GlobalCoverageAware, forwarding to
// every sub-strategy that cares (the engine default interleaves
// cov-opt, whose yield decay would otherwise never fire in a cluster).
func (i *Interleaved) NotifyGlobalCoverage(newLines int) {
	for _, s := range i.subs {
		if g, ok := s.(GlobalCoverageAware); ok {
			g.NotifyGlobalCoverage(newLines)
		}
	}
}

// ---- Fewest-faults-first (Table 5 fault-injection experiment) ----

// FewestFaults prioritizes states with fewer injected faults along their
// path, yielding the uniform fault-depth sweep described in §7.3.3.
type FewestFaults struct {
	buckets map[int][]*tree.Node
	min     int
}

// NewFewestFaults returns the fault-injection-oriented strategy.
func NewFewestFaults() *FewestFaults {
	return &FewestFaults{buckets: map[int][]*tree.Node{}}
}

// Name implements Strategy.
func (f *FewestFaults) Name() string { return "fewest-faults" }

func faultsOf(n *tree.Node) int {
	if n.State != nil {
		return n.State.FaultsTaken
	}
	return n.Faults
}

// Add implements Strategy.
func (f *FewestFaults) Add(n *tree.Node) {
	k := faultsOf(n)
	n.Faults = k
	f.buckets[k] = append(f.buckets[k], n)
	if len(f.buckets) == 1 || k < f.min {
		f.min = k
	}
}

// Remove implements Strategy.
func (f *FewestFaults) Remove(n *tree.Node) {
	k := faultsOf(n)
	b := f.buckets[k]
	for i, c := range b {
		if c == n {
			f.buckets[k] = append(b[:i], b[i+1:]...)
			return
		}
	}
}

// Select implements Strategy.
func (f *FewestFaults) Select() *tree.Node {
	for k := f.min; k < f.min+1024; k++ {
		b := f.buckets[k]
		for len(b) > 0 {
			n := b[0]
			b = b[1:]
			f.buckets[k] = b
			if n.IsCandidate() {
				f.min = k
				return n
			}
		}
	}
	return nil
}

// NotifyCoverage implements Strategy.
func (f *FewestFaults) NotifyCoverage(*tree.Node, int) {}
