package search

import (
	"math/rand"

	"cloud9/internal/engine"
	"cloud9/internal/tree"
)

// cupaClass is one equivalence class of candidates: a private inner
// strategy plus the number of entries filed into it. Empty classes keep
// their inner strategy so a class that refills reuses its bookkeeping.
type cupaClass struct {
	inner engine.Strategy
	count int
}

// CUPA is the class-uniform strategy (§3.3's "strategy portfolio
// interface" instantiated with class-uniform path analysis): candidates
// are partitioned by a Classifier, Select draws a non-empty class
// uniformly, then delegates within the class to an inner strategy.
// All operations are O(1) amortized: classes live in a map, the
// non-empty class keys in a slice with a position index (the same
// swap-remove trick Random uses), and each node remembers its class so
// Remove never re-classifies.
//
// Layering nests: an inner constructor may itself build a CUPA, giving
// e.g. site→depth two-level selection.
type CUPA struct {
	cls      Classifier
	newInner func() engine.Strategy
	name     string
	rng      *rand.Rand

	classes map[uint64]*cupaClass
	keys    []uint64       // keys of non-empty classes
	keyPos  map[uint64]int // key → index in keys
	where   map[*tree.Node]uint64

	// Coverage-sensitive classifiers (dist: md2u bands move as the
	// overlay grows) have their nodes re-banded on coverage growth; a
	// deterministic node order (slice + swap-remove index, never a map
	// walk) keeps the re-banding — and thus every later lazy inner
	// construction and rng draw — reproducible for the lock-step sim.
	covSensitive bool
	needReband   bool
	order        []*tree.Node
	orderPos     map[*tree.Node]int
}

// CoverageSensitive marks classifiers whose ClassOf depends on the
// coverage overlay: CUPA re-banding (see NotifyGlobalCoverage) runs
// only for these, so stable classifiers (depth, site) never pay a
// frontier scan.
type CoverageSensitive interface {
	CoverageSensitive()
}

// NewCUPA builds a class-uniform strategy over cls delegating to inner
// strategies built by newInner (one per class, created on first use).
func NewCUPA(cls Classifier, newInner func() engine.Strategy, seed int64) *CUPA {
	_, covSensitive := cls.(CoverageSensitive)
	return &CUPA{
		cls:          cls,
		newInner:     newInner,
		name:         "cupa(" + cls.Name() + ")",
		rng:          rand.New(rand.NewSource(seed)),
		classes:      map[uint64]*cupaClass{},
		keyPos:       map[uint64]int{},
		where:        map[*tree.Node]uint64{},
		covSensitive: covSensitive,
		orderPos:     map[*tree.Node]int{},
	}
}

// Name implements engine.Strategy.
func (c *CUPA) Name() string { return c.name }

// NumClasses returns the number of currently non-empty classes.
func (c *CUPA) NumClasses() int { return len(c.keys) }

func (c *CUPA) pushKey(k uint64) {
	if _, ok := c.keyPos[k]; ok {
		return
	}
	c.keyPos[k] = len(c.keys)
	c.keys = append(c.keys, k)
}

func (c *CUPA) dropKey(k uint64) {
	i, ok := c.keyPos[k]
	if !ok {
		return
	}
	last := len(c.keys) - 1
	c.keys[i] = c.keys[last]
	c.keyPos[c.keys[i]] = i
	c.keys = c.keys[:last]
	delete(c.keyPos, k)
}

// Add implements engine.Strategy.
func (c *CUPA) Add(n *tree.Node) {
	if _, dup := c.where[n]; dup {
		return
	}
	// Children inherit half their parent's coverage yield (the same
	// decaying feedback CoverageOptimized maintains), so the yield
	// classifier and cov-opt inners see the signal whatever the nesting.
	// Only when the node has no yield yet: a SetStrategy re-seed re-Adds
	// existing candidates, and overwriting would resurrect yield that
	// global-coverage decay already discounted.
	if n.CovYield == 0 && n.Parent != nil {
		n.CovYield = n.Parent.CovYield / 2
	}
	k := c.cls.ClassOf(n)
	cl := c.classes[k]
	if cl == nil {
		cl = &cupaClass{inner: c.newInner()}
		c.classes[k] = cl
	}
	cl.inner.Add(n)
	cl.count++
	c.where[n] = k
	c.pushKey(k)
	c.track(n)
}

// track/untrack maintain the deterministic node order re-banding
// iterates (swap-remove, O(1)); only coverage-sensitive classifiers
// pay for it.
func (c *CUPA) track(n *tree.Node) {
	if !c.covSensitive {
		return
	}
	c.orderPos[n] = len(c.order)
	c.order = append(c.order, n)
}

func (c *CUPA) untrack(n *tree.Node) {
	if !c.covSensitive {
		return
	}
	i, ok := c.orderPos[n]
	if !ok {
		return
	}
	last := len(c.order) - 1
	c.order[i] = c.order[last]
	c.orderPos[c.order[i]] = i
	c.order = c.order[:last]
	delete(c.orderPos, n)
}

// reband re-files every tracked node whose class key moved — md2u
// bands shift as coverage grows, and a node banded "next to uncovered
// code" at Add time must not keep that class's selection share after
// the region saturates. Coverage notifications only mark the need; the
// scan runs once at the next Select, so a burst of MsgCoverage deltas
// drained in one mailbox pass costs one frontier pass, not one per
// message. Iteration follows the deterministic order slice, so lazy
// inner construction and seed draws stay reproducible.
func (c *CUPA) reband() {
	if !c.needReband {
		return
	}
	c.needReband = false
	for _, n := range c.order {
		k := c.where[n]
		k2 := c.cls.ClassOf(n)
		if k2 == k {
			continue
		}
		cl := c.classes[k]
		cl.inner.Remove(n)
		cl.count--
		if cl.count <= 0 {
			cl.count = 0
			c.dropKey(k)
		}
		dst := c.classes[k2]
		if dst == nil {
			dst = &cupaClass{inner: c.newInner()}
			c.classes[k2] = dst
		}
		dst.inner.Add(n)
		dst.count++
		c.where[n] = k2
		c.pushKey(k2)
	}
}

// Remove implements engine.Strategy. Unknown nodes are a no-op.
func (c *CUPA) Remove(n *tree.Node) {
	k, ok := c.where[n]
	if !ok {
		return
	}
	delete(c.where, n)
	c.untrack(n)
	cl := c.classes[k]
	cl.inner.Remove(n)
	cl.count--
	if cl.count <= 0 {
		cl.count = 0
		c.dropKey(k)
	}
}

// Select implements engine.Strategy: uniform over non-empty classes,
// then the class's inner policy.
func (c *CUPA) Select() *tree.Node {
	c.reband()
	for len(c.keys) > 0 {
		k := c.keys[c.rng.Intn(len(c.keys))]
		cl := c.classes[k]
		n := cl.inner.Select()
		if n == nil {
			// The inner consumed its remaining entries as stale; retire
			// the class until something is filed into it again.
			cl.count = 0
			c.dropKey(k)
			continue
		}
		cl.count--
		if cl.count <= 0 {
			cl.count = 0
			c.dropKey(k)
		}
		delete(c.where, n)
		c.untrack(n)
		if n.IsCandidate() {
			return n
		}
	}
	return nil
}

// NotifyCoverage implements engine.Strategy. The node CovYield the
// yield classifier and cov-opt inners read is credited once by the
// explorer; crediting it here too would double-count whenever two
// coverage-aware strategies share the node (interleave siblings).
// Locally covered lines do move md2u bands, though, so a coverage-
// sensitive classifier re-bands its frontier.
func (c *CUPA) NotifyCoverage(_ *tree.Node, newLines int) {
	if newLines > 0 && c.covSensitive {
		c.needReband = true
	}
}

// NotifyGlobalCoverage implements engine.GlobalCoverageAware: global
// overlay growth is forwarded to every non-empty class's inner (nested
// CUPAs and cov-opt inners decay their local yield signal — lines the
// rest of the cluster just covered are no longer new here), and a
// coverage-sensitive classifier re-bands the frontier (a node filed
// "next to uncovered code" must lose that class once the cluster
// saturates the region).
func (c *CUPA) NotifyGlobalCoverage(newLines int) {
	if newLines > 0 && c.covSensitive {
		c.needReband = true
	}
	for _, k := range c.keys {
		if g, ok := c.classes[k].inner.(engine.GlobalCoverageAware); ok {
			g.NotifyGlobalCoverage(newLines)
		}
	}
}
