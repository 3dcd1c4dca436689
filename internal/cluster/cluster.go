package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cloud9/internal/engine"
	"cloud9/internal/interp"
	"cloud9/internal/obs"
	"cloud9/internal/search"
)

// FaultEvent schedules a membership event for fault injection: it fires
// once the cluster-wide explored-path count reaches AfterPaths.
type FaultEvent struct {
	Worker     int    // target worker id (ignored for Join)
	AfterPaths uint64 // trigger threshold on the LB's path total
}

// FaultPlan injects membership events into an in-process run, for crash
// recovery and elasticity testing.
type FaultPlan struct {
	// Kill crashes the worker abruptly: no goodbye, no final status.
	Kill *FaultEvent
	// Retire makes the worker leave gracefully (final status + goodbye).
	Retire *FaultEvent
	// Join spawns one additional worker mid-run.
	Join *FaultEvent
	// CrashLB kills the load balancer itself (Worker is ignored): a
	// standby replica that has been tailing the primary's input log —
	// minus the entries still in flight, which die with the process —
	// promotes itself two balance periods later. Workers ride out the
	// outage on failed sends and re-handshake with full statuses when the
	// stream generation bumps.
	CrashLB *FaultEvent
	// PeerDown blackholes every peer job-shipping link from the trigger
	// on (Worker is ignored): SendJobs fails as if the destination's
	// listener were unreachable, so each batch falls back to LB relay.
	// Custody is channel-agnostic, so path counts must be unchanged.
	PeerDown *FaultEvent
}

// Config describes an in-process cluster run.
type Config struct {
	Workers   int
	Entry     string
	NewInterp func() (*interp.Interp, error)
	Engine    engine.Config
	Balancer  BalancerConfig

	// BalanceEvery is the LB's decision period.
	BalanceEvery time.Duration
	// SampleEvery is the metrics sampling period.
	SampleEvery time.Duration
	// MaxDuration bounds the run (0 = until exhaustion).
	MaxDuration time.Duration
	// StopWhen, if set, ends the run when it returns true.
	StopWhen func(s Snapshot) bool
	// DisableLBAfter turns load balancing off mid-run (Fig. 13); 0 keeps
	// it on.
	DisableLBAfter time.Duration
	// WorkerBatch is the per-worker step batch between mailbox polls.
	WorkerBatch int
	// Faults schedules membership events (crash/retire/join) mid-run.
	Faults FaultPlan
}

// Snapshot is a point-in-time view of cluster progress.
type Snapshot struct {
	Elapsed           time.Duration
	UsefulSteps       uint64
	ReplaySteps       uint64
	Paths             uint64
	Errors            uint64
	Hangs             uint64
	Coverage          int
	Queues            []int
	StatesTransferred int
	TransfersIssued   int
}

// Result is the outcome of a cluster run.
type Result struct {
	Final     Snapshot
	Samples   []Snapshot
	Exhausted bool // ended by frontier exhaustion (vs. time/stop rule)
	Wall      time.Duration
	Workers   []*Worker
	Evictions int
	Leaves    int
	// Promotions counts LB failovers folded into this run's history (0
	// when the original primary survived).
	Promotions int
	// Obs is the fleet-wide metrics fold: live workers' registries,
	// departed members' accounted snapshots, and the LB's own counters.
	// Final's counter fields are rendered from it.
	Obs obs.Snapshot
	// Journal is the LB's run-event journal (membership, custody and
	// portfolio events, in order).
	Journal []obs.Event
}

// fabric is the in-process transport: one mailbox per worker plus an
// ordered control channel into the LB. Mailboxes are registered
// dynamically as members join.
type fabric struct {
	mu        sync.Mutex
	mailboxes map[int]chan Message
	// peeked holds messages WaitForMail pulled off a mailbox while
	// blocking; Recv drains it before the channel so per-source FIFO
	// order — which the custody protocol's sequence high-water marks
	// depend on — is preserved.
	peeked map[int][]Message
	toLB   chan Message
	// lbGen is the LB stream generation (starts at 1; promotion bumps
	// it, forcing every worker's next status to be a full snapshot with
	// a cumulative metrics baseline). lbDown is set between an LB crash
	// and the standby's promotion: worker→LB sends fail outright, the
	// same as a dead TCP control connection.
	lbGen  atomic.Uint64
	lbDown atomic.Bool
	// peerDown blackholes worker→worker job shipping (FaultPlan.PeerDown):
	// SendJobs fails as if the peer listener were unreachable, forcing the
	// LB-relay fallback without touching the control channel.
	peerDown atomic.Bool
}

func (f *fabric) register(id int) chan Message {
	f.mu.Lock()
	defer f.mu.Unlock()
	mb := make(chan Message, 16384)
	f.mailboxes[id] = mb
	return mb
}

func (f *fabric) mailbox(id int) chan Message {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mailboxes[id]
}

func (f *fabric) all() []chan Message {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]chan Message, 0, len(f.mailboxes))
	for _, mb := range f.mailboxes {
		out = append(out, mb)
	}
	return out
}

// dispatch routes LB outbounds. Sends are blocking: mailboxes are amply
// buffered and FIFO order is what the custody protocol's sequence
// high-water marks rely on.
func (f *fabric) dispatch(outs []Outbound) {
	for _, out := range outs {
		if out.To == Broadcast {
			for _, mb := range f.all() {
				mb <- out.Msg
			}
			continue
		}
		if mb := f.mailbox(out.To); mb != nil {
			mb <- out.Msg
		}
	}
}

type endpoint struct {
	f  *fabric
	id int
}

func (e endpoint) SendToLB(m Message) bool {
	if e.f.lbDown.Load() {
		return false
	}
	e.f.toLB <- m
	return true
}

// LBGen / SendToLBAt make the fabric an lbStreamTransport, so an LB
// failover forces the same full-status re-handshake a TCP stream
// reconnect does.
func (e endpoint) LBGen() uint64 { return e.f.lbGen.Load() }

func (e endpoint) SendToLBAt(m Message, gen uint64) bool {
	if gen != e.f.lbGen.Load() {
		return false
	}
	return e.SendToLB(m)
}

func (e endpoint) SendJobs(dst int, m Message) bool {
	if e.f.peerDown.Load() {
		return false
	}
	mb := e.f.mailbox(dst)
	if mb == nil {
		return false
	}
	mb <- m
	return true
}

func (e endpoint) Recv() (Message, bool) {
	e.f.mu.Lock()
	if q := e.f.peeked[e.id]; len(q) > 0 {
		m := q[0]
		e.f.peeked[e.id] = q[1:]
		e.f.mu.Unlock()
		return m, true
	}
	mb := e.f.mailboxes[e.id]
	e.f.mu.Unlock()
	select {
	case m := <-mb:
		return m, true
	default:
		return Message{}, false
	}
}

func (e endpoint) WaitForMail() {
	select {
	case m := <-e.f.mailbox(e.id):
		// Park it in the peek buffer (NOT back onto the channel, which
		// would reorder it behind later messages) for the next Recv.
		e.f.mu.Lock()
		e.f.peeked[e.id] = append(e.f.peeked[e.id], m)
		e.f.mu.Unlock()
	case <-time.After(2 * time.Millisecond):
	}
}

// Run executes a cluster until exhaustion, MaxDuration, or StopWhen.
// Workers may crash, retire, or join mid-run (Config.Faults or real
// crashes over TCP): the LB evicts silent members when their lease
// lapses and re-seats their last-reported jobs onto survivors.
func Run(cfg Config) (*Result, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.BalanceEvery <= 0 {
		cfg.BalanceEvery = 5 * time.Millisecond
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 50 * time.Millisecond
	}
	// In-process, a worker cannot die silently — a worker error aborts
	// the whole Run — so lease eviction only serves fault injection.
	// Arming it unconditionally would let a single multi-second solver
	// step falsely evict a live worker mid-run.
	leaseExpiry := cfg.Faults.Kill != nil || cfg.Faults.CrashLB != nil || cfg.Balancer.Lease > 0
	if cfg.Balancer.Delta == 0 {
		d := cfg.Balancer
		cfg.Balancer = DefaultBalancerConfig()
		if d.Lease > 0 {
			cfg.Balancer.Lease = d.Lease
		}
		cfg.Balancer.Portfolio = d.Portfolio
		cfg.Balancer.ReweightEvery = d.ReweightEvery
		cfg.Balancer.DataPlane = d.DataPlane
		cfg.Balancer.PartitionDepth = d.PartitionDepth
		cfg.Balancer.PartitionUnits = d.PartitionUnits
	}
	// Depth partitioning changes how workers are constructed — every
	// worker seeds the root and carries the partition spec — so resolve
	// the defaults NewLoadBalancer would apply before the probe exists.
	depth := cfg.Balancer.DataPlane == DataPlaneDepth
	if depth {
		if cfg.Balancer.PartitionDepth <= 0 {
			cfg.Balancer.PartitionDepth = DefaultPartitionDepth
		}
		if cfg.Balancer.PartitionUnits <= 0 {
			cfg.Balancer.PartitionUnits = DefaultPartitionUnits
		}
		cfg.Engine.Partition = &engine.PartitionSpec{
			Depth: cfg.Balancer.PartitionDepth,
			Units: cfg.Balancer.PartitionUnits,
		}
	}
	for _, spec := range cfg.Balancer.Portfolio {
		if err := search.Validate(spec); err != nil {
			return nil, fmt.Errorf("cluster: portfolio: %w", err)
		}
	}
	f := &fabric{
		mailboxes: map[int]chan Message{},
		peeked:    map[int][]Message{},
		toLB:      make(chan Message, 1<<16),
	}
	f.lbGen.Store(1)

	// The kill fault's trigger runs on the victim's own thread: once the
	// LB arms it (path threshold reached), the victim crashes at its first
	// loop boundary whose last sent status reported jobs. The LB then
	// cannot reach quiescence without evicting it and re-seating that
	// work, so an armed kill always exercises the crash path, however
	// fast the run; a trigger that waits for a fat queue can miss its
	// window.
	var killArmed atomic.Bool
	crashWhenFor := func(id int) func(int) bool {
		if cfg.Faults.Kill == nil || cfg.Faults.Kill.Worker != id {
			return nil
		}
		return func(reportedQueue int) bool {
			return killArmed.Load() && reportedQueue > 0
		}
	}

	// Bootstrap one interpreter to size the coverage vector before the
	// LB exists.
	probe, err := NewWorker(WorkerConfig{
		ID: 0, Seed: true, Batch: cfg.WorkerBatch, Engine: cfg.Engine,
		NewInterp: cfg.NewInterp, Entry: cfg.Entry,
		DataPlane: cfg.Balancer.DataPlane,
		CrashWhen: crashWhenFor(0),
	}, endpoint{f, 0})
	if err != nil {
		return nil, fmt.Errorf("cluster: worker 0: %w", err)
	}
	covLen := probe.Exp.Cov.Len() - 1
	lb := NewLoadBalancer(cfg.Balancer, covLen)

	// LB failover: the standby tails the primary's input log. All LB
	// mutations happen on this goroutine, so onRep appends to a plain
	// slice; entries are applied to the standby at the next balance tick,
	// leaving the latest window in flight — lost if the crash fires.
	var standby *Replica
	var repQ []RepEntry
	if cfg.Faults.CrashLB != nil {
		standby = NewReplica(lb.Config(), covLen)
		lb.StartReplication(func(e RepEntry) { repQ = append(repQ, e) })
	}
	drainRep := func() error {
		for _, e := range repQ {
			if err := standby.Apply(e); err != nil {
				return fmt.Errorf("cluster: standby: %w", err)
			}
		}
		repQ = repQ[:0]
		return nil
	}

	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Workers+8)
	var workersMu sync.Mutex
	var workers []*Worker

	start := func(w *Worker) {
		workersMu.Lock()
		workers = append(workers, w)
		workersMu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.RunLoop(); err != nil {
				errCh <- fmt.Errorf("worker %d: %w", w.ID, err)
			}
		}()
	}
	spawn := func(seedOK bool) (*Worker, error) {
		m, outs := lb.Join("", time.Now())
		f.register(m.ID)
		f.dispatch(outs)
		w, err := NewWorker(WorkerConfig{
			ID: m.ID, Epoch: m.Epoch, Seed: (seedOK && m.ID == 0) || depth,
			Batch: cfg.WorkerBatch, Engine: cfg.Engine,
			NewInterp: cfg.NewInterp, Entry: cfg.Entry,
			DataPlane:    cfg.Balancer.DataPlane,
			StrategySpec: m.Spec,
			CrashWhen:    crashWhenFor(m.ID),
		}, endpoint{f, m.ID})
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d: %w", m.ID, err)
		}
		return w, nil
	}

	// Seed worker reuses the probe (id 0 is the first join by
	// construction). The probe's engine predates the join, so its
	// portfolio slot is applied as a (pre-run) hot-swap.
	m0, outs0 := lb.Join("", time.Now())
	f.register(m0.ID)
	f.dispatch(outs0)
	probe.Epoch = m0.Epoch
	if err := probe.ApplyStrategy(m0.Spec); err != nil {
		return nil, err
	}
	// Startup barrier: the seed worker begins exploring only once every
	// initial member has reported in (or a grace period elapses). The
	// TCP path has the same gate via c9-lb -min-workers; without it, on
	// few-core machines the seed's CPU-bound loop can exhaust a small
	// tree before the other workers' goroutines ever run, so no
	// balancing (or fault window) is observable.
	gate := make(chan struct{})
	gateOpen := false
	openGate := func() {
		if !gateOpen {
			close(gate)
			gateOpen = true
		}
	}
	if cfg.Workers <= 1 {
		openGate()
	}
	workersMu.Lock()
	workers = append(workers, probe)
	workersMu.Unlock()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-gate
		if err := probe.RunLoop(); err != nil {
			errCh <- fmt.Errorf("worker %d: %w", probe.ID, err)
		}
	}()
	for i := 1; i < cfg.Workers; i++ {
		w, err := spawn(false)
		if err != nil {
			return nil, err
		}
		start(w)
	}

	startT := time.Now()
	res := &Result{}
	balanceTick := time.NewTicker(cfg.BalanceEvery)
	defer balanceTick.Stop()
	sampleTick := time.NewTicker(cfg.SampleEvery)
	defer sampleTick.Stop()

	snapshot := func() Snapshot {
		s := Snapshot{Elapsed: time.Since(startT)}
		for _, st := range lb.Statuses() {
			s.UsefulSteps += st.UsefulSteps
			s.ReplaySteps += st.ReplaySteps
			s.Paths += st.Paths
			s.Errors += st.Errors
			s.Hangs += st.Hangs
			s.Queues = append(s.Queues, st.Queue)
		}
		cov, _ := lb.GlobalCoverage()
		s.Coverage = cov.Count()
		s.StatesTransferred = lb.StatesTransferred()
		s.TransfersIssued = lb.TransfersIssued
		return s
	}

	stop := func() {
		for _, mb := range f.all() {
			// Non-blocking: a full mailbox still gets the stop flag via a
			// retry below.
			select {
			case mb <- Message{Kind: MsgStop}:
			default:
				go func(mb chan Message) { mb <- Message{Kind: MsgStop} }(mb)
			}
		}
	}

	kill := cfg.Faults.Kill
	retire := cfg.Faults.Retire
	join := cfg.Faults.Join
	crashLB := cfg.Faults.CrashLB
	peerDown := cfg.Faults.PeerDown
	downTicks := 0
	workerByID := func(id int) *Worker {
		workersMu.Lock()
		defer workersMu.Unlock()
		for _, w := range workers {
			if w.ID == id {
				return w
			}
		}
		return nil
	}
	doomed := -2 // worker id a fired kill has taken down

	// checkKill arms the victim's own-thread crash trigger (crashWhenFor)
	// once the path threshold is reached, and stops balancing with the
	// victim once it has crashed. Evaluated on every accepted status, not
	// just balance rounds: on a fast machine the whole run fits in a
	// handful of rounds.
	checkKill := func() {
		if kill == nil || lb.TotalPaths() < kill.AfterPaths {
			return
		}
		killArmed.Store(true)
		if w := workerByID(kill.Worker); w != nil && w.crash.Load() {
			doomed = kill.Worker
			kill = nil
		}
	}

	handleControl := func(m Message) {
		switch m.Kind {
		case MsgStatus:
			if m.Status != nil {
				outs, _ := lb.Update(*m.Status, time.Now())
				f.dispatch(outs)
				if !gateOpen && len(lb.Statuses()) >= cfg.Workers-1 {
					openGate() // initial cluster formed: release the seed
				}
				checkKill()
			}
		case MsgGoodbye:
			if lb.IsMember(m.From, m.Epoch) {
				f.dispatch(lb.Goodbye(m.From, time.Now()))
			}
		case MsgShip:
			// Relay fallback: the sender could not reach its peer, so the
			// batch arrives over the control channel and the LB forwards
			// the payload verbatim.
			f.dispatch(lb.Ship(m))
		}
	}

	var runErr error
	quietRounds := 0
loop:
	for {
		select {
		case err := <-errCh:
			runErr = err
			stop()
			break loop
		case m := <-f.toLB:
			handleControl(m)
		case <-balanceTick.C:
			if !gateOpen && time.Since(startT) >= 250*time.Millisecond {
				openGate() // grace: never hold the seed indefinitely
			}
			// Standby replication: entries queued before this tick have
			// "arrived"; whatever this tick's drain produces stays in
			// flight until the next one (and dies with a crashed primary).
			if standby != nil && !f.lbDown.Load() {
				if err := drainRep(); err != nil {
					runErr = err
					stop()
					break loop
				}
			}
			// Drain pending control messages first for fresh decisions.
			for {
				select {
				case m := <-f.toLB:
					handleControl(m)
					continue
				default:
				}
				break
			}
			// LB failover: kill the primary once the path threshold is
			// reached; the standby promotes itself two balance ticks
			// later, bumping the stream generation so every worker
			// re-handshakes with a full status.
			if crashLB != nil && lb.TotalPaths() >= crashLB.AfterPaths {
				crashLB = nil
				repQ = repQ[:0] // in-flight entries die with the primary
				f.lbDown.Store(true)
				downTicks = 0
			}
			if f.lbDown.Load() {
				downTicks++
				if downTicks >= 2 {
					lb = standby.Promote(time.Now())
					standby = nil
					f.lbDown.Store(false)
					f.lbGen.Add(1)
				}
				if cfg.MaxDuration > 0 && time.Since(startT) >= cfg.MaxDuration {
					stop()
					break loop
				}
				continue
			}
			now := time.Now()
			if leaseExpiry {
				f.dispatch(lb.ExpireLeases(now))
			}
			f.dispatch(lb.Tick(now))
			// Fault plan triggers.
			paths := lb.TotalPaths()
			checkKill()
			if retire != nil && paths >= retire.AfterPaths {
				if w := workerByID(retire.Worker); w != nil {
					w.Retire()
				}
				retire = nil
			}
			if peerDown != nil && paths >= peerDown.AfterPaths {
				peerDown = nil
				f.peerDown.Store(true)
			}
			if join != nil && paths >= join.AfterPaths {
				join = nil
				w, err := spawn(false)
				if err != nil {
					runErr = err
					stop()
					break loop
				}
				start(w)
			}
			if cfg.DisableLBAfter > 0 && time.Since(startT) >= cfg.DisableLBAfter {
				lb.Enabled = false
			}
			for _, ord := range lb.Balance() {
				if ord.Src == doomed || ord.Dst == doomed {
					continue // victim of a fired kill: about to vanish
				}
				if mb := f.mailbox(ord.Src); mb != nil {
					select {
					case mb <- Message{Kind: MsgTransferReq, Dst: ord.Dst, NJobs: ord.NJobs}:
					default:
					}
				}
			}
			if cov, dirty := lb.GlobalCoverage(); dirty {
				words := cov.Words()
				for _, mb := range f.all() {
					select {
					case mb <- Message{Kind: MsgCoverage, CovWords: words}:
					default:
					}
				}
			}
			if lb.ResyncDone() && lb.Quiescent() {
				// Pending fault events whose path thresholds were never
				// reached can no longer change the outcome; drop them so
				// the run can terminate.
				kill, retire, join, crashLB, peerDown = nil, nil, nil, nil, nil
				quietRounds++
				if quietRounds >= 3 {
					res.Exhausted = true
					stop()
					break loop
				}
			} else {
				quietRounds = 0
			}
			if cfg.MaxDuration > 0 && time.Since(startT) >= cfg.MaxDuration {
				stop()
				break loop
			}
			if cfg.StopWhen != nil && cfg.StopWhen(snapshot()) {
				stop()
				break loop
			}
		case <-sampleTick.C:
			res.Samples = append(res.Samples, snapshot())
		}
	}
	wg.Wait()
	// Drain control messages that were still in flight when the loop
	// exited (e.g. a goodbye racing an early stop) so the LB's records
	// are as complete as they can be.
	for {
		select {
		case m := <-f.toLB:
			handleControl(m)
			continue
		default:
		}
		break
	}
	// Final accounting (post-join: no races), folded through the obs
	// plane: live workers contribute their full registry snapshots;
	// departed workers (crashed, retired, or evicted) contribute the
	// LB's accounted snapshot for them — everything they did after that
	// snapshot was re-explored by survivors. A departed worker whose
	// departure the LB never processed (crash with an unexpired lease at
	// shutdown) is still a member: fold in its member snapshot so its
	// contribution isn't dropped. The legacy Snapshot fields are
	// rendered from the merged fold, so they stay exactly equal to the
	// old field-by-field sums.
	final := Snapshot{Elapsed: time.Since(startT)}
	fleet := obs.Snapshot{}
	workersMu.Lock()
	res.Workers = append(res.Workers, workers...)
	workersMu.Unlock()
	for _, w := range res.Workers {
		if w.Departed() {
			if o, ok := lb.MemberObs(w.ID); ok {
				fleet.Merge(o)
			}
			continue
		}
		fleet.Merge(w.Exp.Obs.Snapshot())
		final.Queues = append(final.Queues, w.Exp.Tree.NumCandidates())
		cov, _ := lb.GlobalCoverage()
		cov.Or(w.Exp.Cov)
	}
	fleet.Merge(lb.GoneObs())
	lb.PutLBMetrics(&fleet)
	final.UsefulSteps = fleet.Counter(obs.MEngineUsefulSteps)
	final.ReplaySteps = fleet.Counter(obs.MEngineReplaySteps)
	final.Paths = fleet.Counter(obs.MEnginePaths)
	final.Errors = fleet.Counter(obs.MEngineErrors)
	final.Hangs = fleet.Counter(obs.MEngineHangs)
	cov, _ := lb.GlobalCoverage()
	final.Coverage = cov.Count()
	final.StatesTransferred = lb.StatesTransferred()
	final.TransfersIssued = lb.TransfersIssued
	res.Final = final
	res.Obs = fleet
	res.Journal = lb.Journal().All()
	res.Wall = time.Since(startT)
	res.Evictions = lb.Evictions
	res.Leaves = lb.Leaves
	res.Promotions = lb.Promotions()
	select {
	case err := <-errCh:
		if runErr == nil {
			runErr = err
		}
	default:
	}
	return res, runErr
}
