package bench

import (
	"fmt"
	"io"
	"time"

	"cloud9/internal/cfg"
	"cloud9/internal/engine"
	"cloud9/internal/tree"
)

// Span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the start of exploration; Parent indexes the span
// that was open when this one began (-1 at top level).
type Span struct {
	Name       string
	Parent     int32
	Start, End int64
}

// Tracer keeps spans in memory while a traced sample runs. A disabled
// tracer records nothing and costs one branch per call.
type Tracer struct {
	On     bool
	origin time.Time
	Spans  []Span
	stack  []int32
}

func (t *Tracer) now() int64 { return int64(time.Since(t.origin)) }

// Begin opens a span and returns its handle (-1 when disabled).
func (t *Tracer) Begin(name string) int32 {
	if !t.On {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.Spans))
	t.Spans = append(t.Spans, Span{Name: name, Parent: parent, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// End closes the span h.
func (t *Tracer) End(h int32) {
	if h < 0 {
		return
	}
	t.Spans[h].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// SpanTotals sums each span name's duration, in seconds, and counts its
// spans.
func (t *Tracer) SpanTotals() (total map[string]float64, count map[string]int) {
	total, count = map[string]float64{}, map[string]int{}
	for _, s := range t.Spans {
		total[s.Name] += float64(s.End-s.Start) / 1e9
		count[s.Name]++
	}
	return total, count
}

// Durations returns the durations of every span named name, in
// microseconds.
func (t *Tracer) Durations(name string) []float64 {
	var out []float64
	for _, s := range t.Spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// WriteJSONL writes one JSON object per span.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	for i, s := range t.Spans {
		if _, err := fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, s.Name, s.Parent, s.Start, s.End); err != nil {
			return err
		}
	}
	return nil
}

// strategies builds the engine's default search strategy — random-path
// interleaved with coverage-optimized — from the workload seed, wrapped
// in a decorator that counts (and, when tracing, times) every call the
// engine makes into the search layer. Seed 1 gives the strategy seeds
// (1, 2) that engine.Config{Strategy: nil} uses.
type strategies struct {
	seed int64
	tr   *Tracer
	// onFirstSelect runs once, at the first Select of the run: the
	// moment set-up ends and exploration begins.
	onFirstSelect func()
	started       bool

	selects, stale, steps uint64
	// tick is advanced by the sim's per-tick hook; a worker's
	// Select-to-Select interval within one tick is one step.
	tick     int
	stepDurs []float64 // microseconds
}

func (s *strategies) build(t *tree.Tree, _ *cfg.Distance) engine.Strategy {
	inner := engine.NewInterleaved(engine.NewRandomPath(t, 2*s.seed-1), engine.NewCoverageOptimized(2*s.seed))
	return &tracedStrategy{inner: inner, s: s}
}

// tracedStrategy decorates one worker's strategy. It forwards
// GlobalCoverageAware so the cluster's coverage feed reaches the inner
// cov-opt searcher exactly as it does undecorated.
type tracedStrategy struct {
	inner    engine.Strategy
	s        *strategies
	lastSel  time.Time
	lastTick int
}

func (d *tracedStrategy) Name() string { return d.inner.Name() }

func (d *tracedStrategy) Add(n *tree.Node) {
	h := d.s.tr.Begin("search.add")
	d.inner.Add(n)
	d.s.tr.End(h)
}

func (d *tracedStrategy) Remove(n *tree.Node) {
	h := d.s.tr.Begin("search.remove")
	d.inner.Remove(n)
	d.s.tr.End(h)
}

func (d *tracedStrategy) Select() *tree.Node {
	s := d.s
	if !s.started {
		s.started = true
		if s.onFirstSelect != nil {
			s.onFirstSelect()
		}
	}
	h := s.tr.Begin("search.select")
	n := d.inner.Select()
	s.tr.End(h)
	s.selects++
	if n != nil && !n.IsCandidate() {
		s.stale++
	}
	if n != nil && n.IsCandidate() {
		s.steps++
		if s.tr.On {
			now := time.Now()
			if !d.lastSel.IsZero() && d.lastTick == s.tick {
				s.stepDurs = append(s.stepDurs, float64(now.Sub(d.lastSel))/1e3)
			}
			d.lastSel, d.lastTick = now, s.tick
		}
	}
	return n
}

func (d *tracedStrategy) NotifyCoverage(n *tree.Node, newLines int) {
	d.inner.NotifyCoverage(n, newLines)
}

func (d *tracedStrategy) NotifyGlobalCoverage(newLines int) {
	if g, ok := d.inner.(engine.GlobalCoverageAware); ok {
		g.NotifyGlobalCoverage(newLines)
	}
}
