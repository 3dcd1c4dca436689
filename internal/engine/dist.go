package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"cloud9/internal/cfg"
	"cloud9/internal/tree"
)

// DistWeights parameterizes the DistanceOptimized ranking as a linear
// combination over four normalized candidate features — the small
// feature vector the load balancer's online learner perturbs and races
// (Cha et al.: heuristics drawn from a parameterized family and
// *learned* beat hand-tuned ones). Each feature lies in (0,1]; a
// weight scales its contribution to the candidate's sampling weight:
//
//	MD2U   · 1/(1+md2u)²          — static distance to uncovered code
//	Depth  · 1/(1+depth/8)        — shallow states first
//	Faults · 1/(1+faults)         — fewest injected faults first
//	Yield  · y/(1+y)              — recent lineage coverage yield y
//
// The zero value ranks everything equally (every feature weighted 0
// collapses to the minimum-weight floor); DefaultDistWeights
// reproduces the classic md2u-only ranking.
type DistWeights struct {
	MD2U, Depth, Faults, Yield float64
}

// DefaultDistWeights is the hand-tuned starting point of the learned
// family: pure inverse-square md2u, the KLEE ranking bare dist-opt uses.
func DefaultDistWeights() DistWeights { return DistWeights{MD2U: 1} }

// String renders the vector in the spec grammar's value form
// ("1:0:0:0.5"), round-trippable through ParseDistWeights.
func (w DistWeights) String() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return f(w.MD2U) + ":" + f(w.Depth) + ":" + f(w.Faults) + ":" + f(w.Yield)
}

// ParseDistWeights parses a ':'-separated four-component weight vector
// (md2u:depth:faults:yield). Components must be finite and
// non-negative — a negative feature weight would invert a preference
// the features are normalized to express directly.
func ParseDistWeights(s string) (DistWeights, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return DistWeights{}, fmt.Errorf("engine: weight vector %q needs 4 components (md2u:depth:faults:yield), got %d", s, len(parts))
	}
	var vals [4]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return DistWeights{}, fmt.Errorf("engine: weight vector %q: bad component %q", s, p)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return DistWeights{}, fmt.Errorf("engine: weight vector %q: component %q must be finite and non-negative", s, p)
		}
		vals[i] = v
	}
	return DistWeights{MD2U: vals[0], Depth: vals[1], Faults: vals[2], Yield: vals[3]}, nil
}

// DistanceOptimized is KLEE's coverage-optimized searcher proper: it
// weights each candidate by the inverse square of its static minimum
// distance to uncovered code (md2u over the internal/cfg call-and-flow
// graph) and samples proportionally, steering workers toward states
// that are few branches away from lines nobody has covered yet — where
// CoverageOptimized rewards yield after the fact, this ranks by
// predicted yield before it.
//
// Weights are computed at selection time straight from the shared
// oracle, so every coverage delta — locally executed lines or a global
// overlay merge — re-ranks the frontier at the next Select with no
// bookkeeping here. Virtual nodes (path-only jobs not yet replayed)
// have no program state to locate and draw a neutral weight, as does
// every node when no oracle was supplied (a Validate build).
type DistanceOptimized struct {
	d     *cfg.Distance
	nodes []*tree.Node
	pos   map[*tree.Node]int
	rng   *rand.Rand
	// w, when set, replaces the fixed md2u ranking with the linear
	// feature combination of DistWeights. nil keeps the legacy scoring
	// path untouched (bit-for-bit: the exactness pins and the PR 5
	// experiment baselines run bare dist-opt).
	w *DistWeights
}

// NewDistanceOptimized returns a distance-to-uncovered weighted
// strategy reading d (nil degrades to uniform selection).
func NewDistanceOptimized(d *cfg.Distance, seed int64) *DistanceOptimized {
	return &DistanceOptimized{
		d:   d,
		pos: map[*tree.Node]int{},
		rng: rand.New(rand.NewSource(seed)),
	}
}

// NewDistanceOptimizedWeighted returns the parameterized-family member
// with the given feature weights ("dist-opt(w=...)" in the spec
// grammar).
func NewDistanceOptimizedWeighted(d *cfg.Distance, seed int64, w DistWeights) *DistanceOptimized {
	r := NewDistanceOptimized(d, seed)
	r.w = &w
	return r
}

// Name implements Strategy.
func (r *DistanceOptimized) Name() string { return "dist-opt" }

// Add implements Strategy.
func (r *DistanceOptimized) Add(n *tree.Node) {
	if _, dup := r.pos[n]; dup {
		return
	}
	r.pos[n] = len(r.nodes)
	r.nodes = append(r.nodes, n)
}

// Remove implements Strategy.
func (r *DistanceOptimized) Remove(n *tree.Node) {
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

// virtualWeight is the rank of a node whose distance is unknown — a
// virtual (not-yet-replayed) job, or any node when no oracle was
// supplied. It corresponds to assuming the state sits a few branches
// from uncovered code (md2u 4): below every genuinely near state, so a
// flood of imported virtual jobs cannot drown the nearly-there states
// this strategy exists to prioritize, yet far above the saturated
// residual, so transferred work still materializes ahead of dead ends.
const virtualWeight = 1.0 / 25 // 1/(1+4)²

// distWeight ranks a candidate: 1/(1+md2u)², the sharp preference for
// nearly-there states KLEE's md2u searcher uses. States that cannot
// reach uncovered code keep a tiny residual weight so a saturated
// frontier still drains. With a weight vector installed, the rank is
// instead the vector's linear combination over the normalized feature
// set (featWeight).
func (r *DistanceOptimized) distWeight(n *tree.Node) float64 {
	if r.w != nil {
		return r.featWeight(n)
	}
	if r.d == nil || n.State == nil {
		return virtualWeight
	}
	dd := r.d.StateDist(n.State)
	if dd >= cfg.Unreachable {
		return 1e-9
	}
	w := float64(1 + dd)
	return 1 / (w * w)
}

// minFeatWeight keeps every candidate selectable whatever the vector:
// a learner-proposed all-zero (or saturated-feature) vector must
// degrade to uniform drain, not a division by zero or a starved node.
const minFeatWeight = 1e-9

// featWeight scores a candidate under the parameterized family: the
// weight vector dotted with the four normalized features documented on
// DistWeights. The md2u feature reuses the legacy scale (inverse
// square, virtualWeight for unlocatable states) so w=1:0:0:0 ranks
// like classic dist-opt.
func (r *DistanceOptimized) featWeight(n *tree.Node) float64 {
	w := r.w
	md := virtualWeight
	if r.d != nil && n.State != nil {
		if dd := r.d.StateDist(n.State); dd >= cfg.Unreachable {
			md = minFeatWeight
		} else {
			f := float64(1 + dd)
			md = 1 / (f * f)
		}
	}
	score := w.MD2U * md
	score += w.Depth / (1 + float64(n.Depth)/8)
	score += w.Faults / float64(1+faultsOf(n))
	if y := n.CovYield; y > 0 {
		score += w.Yield * y / (1 + y)
	}
	if score < minFeatWeight {
		score = minFeatWeight
	}
	return score
}

// Select implements Strategy: proportional sampling over distance
// weights (the same loop CoverageOptimized uses over yield weights).
func (r *DistanceOptimized) Select() *tree.Node {
	for len(r.nodes) > 0 {
		total := 0.0
		weights := make([]float64, len(r.nodes))
		for i, n := range r.nodes {
			weights[i] = r.distWeight(n)
			total += weights[i]
		}
		pick := r.rng.Float64() * total
		var chosen *tree.Node
		for i, n := range r.nodes {
			pick -= weights[i]
			if pick <= 0 {
				chosen = n
				break
			}
		}
		if chosen == nil {
			chosen = r.nodes[len(r.nodes)-1]
		}
		r.Remove(chosen)
		if chosen.IsCandidate() {
			return chosen
		}
	}
	return nil
}

// NotifyCoverage implements Strategy. Distances are read fresh from the
// oracle at Select, so newly covered lines re-rank without bookkeeping.
func (r *DistanceOptimized) NotifyCoverage(*tree.Node, int) {}
