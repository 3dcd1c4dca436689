package cluster

// Membership fault-injection tests: the acceptance bar for dynamic
// membership is that killing a worker mid-run — in-process, in the
// deterministic sim, and over TCP — yields exactly the same explored
// path count as an undisturbed run (the evicted worker's last-reported
// jobs are re-seated and everything past its last report is re-explored
// exactly once), and that a late joiner receives jobs within a balance
// round.

import (
	"testing"
	"time"

	"cloud9/internal/engine"
)

func faultConfig(t *testing.T, workers int, faults FaultPlan) Config {
	t.Helper()
	// Tight cadence (see runCluster): fault windows — arming the kill
	// before the victim runs dry — must fit inside runs the incremental
	// solver finishes in a few milliseconds. WorkerBatch 4 doubles status
	// frequency, so the victim reports its queue more often.
	return Config{
		Workers:      workers,
		Entry:        "main",
		NewInterp:    mkInterp(t, bigClusterTarget),
		Engine:       engine.Config{MaxStateSteps: 1_000_000},
		MaxDuration:  60 * time.Second,
		BalanceEvery: 500 * time.Microsecond,
		WorkerBatch:  4,
		Balancer:     BalancerConfig{Lease: 250 * time.Millisecond},
		Faults:       faults,
	}
}

func TestClusterWorkerCrashRecoveryExactPaths(t *testing.T) {
	res, err := Run(faultConfig(t, 3, FaultPlan{
		Kill: &FaultEvent{Worker: 1, AfterPaths: 50},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatal("crashed-worker run did not exhaust the tree")
	}
	// Same totals as an undisturbed run: 1024 paths, 1 error — the
	// evicted worker's frontier was re-seated, nothing lost, nothing
	// explored twice.
	if res.Final.Paths != 1024 {
		t.Fatalf("paths = %d, want exactly 1024 after a worker crash", res.Final.Paths)
	}
	if res.Final.Errors != 1 {
		t.Fatalf("errors = %d, want 1", res.Final.Errors)
	}
	if res.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", res.Evictions)
	}
	var crashed *Worker
	for _, w := range res.Workers {
		if w.ID == 1 {
			crashed = w
		}
	}
	if crashed == nil || !crashed.Departed() {
		t.Fatal("worker 1 should have departed")
	}
}

func TestClusterLateJoinReceivesJobs(t *testing.T) {
	res, err := Run(faultConfig(t, 2, FaultPlan{
		Join: &FaultEvent{AfterPaths: 30},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.Final.Paths != 1024 || res.Final.Errors != 1 {
		t.Fatalf("exhausted=%v paths=%d errors=%d", res.Exhausted, res.Final.Paths, res.Final.Errors)
	}
	if len(res.Workers) != 3 {
		t.Fatalf("workers = %d, want 3 after late join", len(res.Workers))
	}
	var joiner *Worker
	for _, w := range res.Workers {
		if w.ID == 2 {
			joiner = w
		}
	}
	if joiner == nil {
		t.Fatal("late joiner missing")
	}
	if joiner.Exp.Stats.UsefulSteps == 0 {
		t.Fatal("late joiner never received work")
	}
}

func TestClusterGracefulRetire(t *testing.T) {
	res, err := Run(faultConfig(t, 3, FaultPlan{
		Retire: &FaultEvent{Worker: 2, AfterPaths: 50},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.Final.Paths != 1024 || res.Final.Errors != 1 {
		t.Fatalf("exhausted=%v paths=%d errors=%d", res.Exhausted, res.Final.Paths, res.Final.Errors)
	}
	if res.Leaves != 1 {
		t.Fatalf("leaves = %d, want 1 graceful goodbye", res.Leaves)
	}
	if res.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 (goodbye, not crash)", res.Evictions)
	}
}

func TestSimCrashRecoveryDeterministic(t *testing.T) {
	factory := mkInterp(t, clusterTarget)
	run := func(crashes []SimEvent) *SimResult {
		res, err := RunSim(SimConfig{
			Workers:    3,
			Entry:      "main",
			NewInterp:  factory,
			Engine:     engine.Config{MaxStateSteps: 1_000_000},
			Quantum:    200,
			Crashes:    crashes,
			LeaseTicks: 3,
			MaxTicks:   10_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	undisturbed := run(nil)
	if !undisturbed.Exhausted || undisturbed.Final.Paths != 64 {
		t.Fatalf("undisturbed: exhausted=%v paths=%d", undisturbed.Exhausted, undisturbed.Final.Paths)
	}
	crash := []SimEvent{{Tick: 4, Worker: 1}}
	a := run(crash)
	if !a.Exhausted {
		t.Fatal("crashed run did not exhaust")
	}
	if a.Final.Paths != undisturbed.Final.Paths {
		t.Fatalf("paths with crash = %d, undisturbed = %d", a.Final.Paths, undisturbed.Final.Paths)
	}
	if a.Final.Errors != 1 {
		t.Fatalf("errors = %d", a.Final.Errors)
	}
	if a.Evictions != 1 {
		t.Fatalf("evictions = %d", a.Evictions)
	}
	// Crash recovery itself must be deterministic: bit-for-bit identical
	// reruns.
	b := run(crash)
	if a.Ticks != b.Ticks || a.Final.Paths != b.Final.Paths ||
		a.Final.UsefulSteps != b.Final.UsefulSteps ||
		a.Final.TransfersIssued != b.Final.TransfersIssued {
		t.Fatalf("crashed sim not deterministic:\n a=%+v (%d ticks)\n b=%+v (%d ticks)",
			a.Final, a.Ticks, b.Final, b.Ticks)
	}
}

func TestSimLateJoinAndRetire(t *testing.T) {
	factory := mkInterp(t, clusterTarget)
	res, err := RunSim(SimConfig{
		Workers:   2,
		Entry:     "main",
		NewInterp: factory,
		Engine:    engine.Config{MaxStateSteps: 1_000_000},
		Quantum:   150,
		Joins:     []int{3},
		Retires:   []SimEvent{{Tick: 6, Worker: 0}},
		MaxTicks:  10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.Final.Paths != 64 || res.Final.Errors != 1 {
		t.Fatalf("exhausted=%v paths=%d errors=%d", res.Exhausted, res.Final.Paths, res.Final.Errors)
	}
	if len(res.Workers) != 3 {
		t.Fatalf("workers = %d", len(res.Workers))
	}
	joiner := res.Workers[2]
	if joiner.Exp.Stats.UsefulSteps == 0 {
		t.Fatal("late joiner never received work")
	}
	if res.LB.Leaves != 1 {
		t.Fatalf("leaves = %d", res.LB.Leaves)
	}
}

// TestWorkerSelfEvictionHalts checks the epoch fencing path: a worker
// that learns of its own eviction halts instead of continuing to
// explore work that has been re-seated elsewhere.
func TestWorkerSelfEvictionHalts(t *testing.T) {
	f := &fabric{mailboxes: map[int]chan Message{}, toLB: make(chan Message, 1024)}
	f.register(0)
	w, err := NewWorker(WorkerConfig{
		ID: 0, Epoch: 7, Seed: true,
		NewInterp: mkInterp(t, clusterTarget), Entry: "main",
	}, endpoint{f, 0})
	if err != nil {
		t.Fatal(err)
	}
	f.mailboxes[0] <- Message{Kind: MsgEvict, From: 0, Epoch: 7, Members: map[int]uint64{}}
	w.drainMailbox()
	if !w.Stopped() || !w.Departed() {
		t.Fatalf("self-evicted worker kept running: stopped=%v departed=%v",
			w.Stopped(), w.Departed())
	}
}

// TestStaleSenderJobsDropped checks that a job batch from an evicted
// peer's epoch is discarded: its frontier was already re-seated, so
// importing the batch would duplicate work.
func TestStaleSenderJobsDropped(t *testing.T) {
	f := &fabric{mailboxes: map[int]chan Message{}, toLB: make(chan Message, 1024)}
	f.register(0)
	w, err := NewWorker(WorkerConfig{
		ID: 0, Epoch: 1, Seed: false,
		NewInterp: mkInterp(t, clusterTarget), Entry: "main",
	}, endpoint{f, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Learn that peer 1 (epoch 2) was evicted.
	f.mailboxes[0] <- Message{Kind: MsgEvict, From: 1, Epoch: 2, Members: map[int]uint64{0: 1}}
	// A late batch from the evicted incarnation must be dropped without
	// touching the frontier or the receive counters.
	jobs := BuildJobTree([][]uint8{{0}, {1}})
	f.mailboxes[0] <- Message{Kind: MsgJobs, From: 1, Epoch: 2, Seq: 1, Jobs: jobs}
	w.drainMailbox()
	if w.jobsRecv.Load() != 0 || w.transfersIn.Load() != 0 {
		t.Fatalf("stale batch counted: recv=%d in=%d", w.jobsRecv.Load(), w.transfersIn.Load())
	}
	if w.Exp.Tree.NumCandidates() != 0 {
		t.Fatalf("stale batch imported: %d candidates", w.Exp.Tree.NumCandidates())
	}
	// The same batch from a live (rejoined, higher-epoch) incarnation is
	// accepted.
	f.mailboxes[0] <- Message{Kind: MsgJobs, From: 1, Epoch: 3, Seq: 1, Jobs: jobs}
	w.drainMailbox()
	if w.jobsRecv.Load() != 2 || w.Exp.Tree.NumCandidates() != 2 {
		t.Fatalf("live batch not imported: recv=%d cands=%d", w.jobsRecv.Load(), w.Exp.Tree.NumCandidates())
	}
	// A duplicate resend of the same sequence is suppressed exactly once.
	f.mailboxes[0] <- Message{Kind: MsgJobs, From: 1, Epoch: 3, Seq: 1, Jobs: jobs}
	w.drainMailbox()
	if w.jobsRecv.Load() != 2 {
		t.Fatalf("duplicate resend double counted: recv=%d", w.jobsRecv.Load())
	}
}

// TestGapBatchesDroppedUntilResent checks the receiver's contiguity
// rule: when a batch is lost in transit (its sequence never arrives), a
// later batch from the same sender must not advance the ack high-water
// mark past the hole — otherwise the cumulative ack would release the
// sender's custody of the lost batch and its jobs would vanish. The
// receiver drops out-of-order batches uncounted and processes the
// sender's in-order re-sends instead.
func TestGapBatchesDroppedUntilResent(t *testing.T) {
	f := &fabric{mailboxes: map[int]chan Message{}, toLB: make(chan Message, 1024)}
	f.register(0)
	w, err := NewWorker(WorkerConfig{
		ID: 0, Epoch: 1, Seed: false,
		NewInterp: mkInterp(t, clusterTarget), Entry: "main",
	}, endpoint{f, 0})
	if err != nil {
		t.Fatal(err)
	}
	b1 := BuildJobTree([][]uint8{{0}})
	b2 := BuildJobTree([][]uint8{{1}})
	// Batch 2 arrives first (batch 1 was lost on a dead connection).
	f.mailboxes[0] <- Message{Kind: MsgJobs, From: 1, Epoch: 2, Seq: 2, Jobs: b2}
	w.drainMailbox()
	if w.jobsRecv.Load() != 0 || w.ackHW[1] != 0 {
		t.Fatalf("gap batch processed: recv=%d hw=%d", w.jobsRecv.Load(), w.ackHW[1])
	}
	// The sender re-sends in order: 1 then 2. Both must now land.
	f.mailboxes[0] <- Message{Kind: MsgJobs, From: 1, Epoch: 2, Seq: 1, Jobs: b1}
	f.mailboxes[0] <- Message{Kind: MsgJobs, From: 1, Epoch: 2, Seq: 2, Jobs: b2}
	w.drainMailbox()
	if w.jobsRecv.Load() != 2 || w.ackHW[1] != 2 {
		t.Fatalf("in-order resends not processed: recv=%d hw=%d", w.jobsRecv.Load(), w.ackHW[1])
	}
	if w.Exp.Tree.NumCandidates() != 2 {
		t.Fatalf("candidates = %d, want 2", w.Exp.Tree.NumCandidates())
	}
}

// TestReimportOnDestinationEviction checks sender-side custody: a batch
// exported to a destination that is evicted before acknowledging comes
// back home and is re-imported, keeping the send/receive reconciliation
// balanced.
func TestReimportOnDestinationEviction(t *testing.T) {
	f := &fabric{mailboxes: map[int]chan Message{}, toLB: make(chan Message, 1024)}
	f.register(0)
	f.register(1)
	w, err := NewWorker(WorkerConfig{
		ID: 0, Epoch: 1, Seed: true,
		NewInterp: mkInterp(t, clusterTarget), Entry: "main",
	}, endpoint{f, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Grow a small frontier, then export part of it to worker 1.
	for i := 0; i < 6; i++ {
		if _, err := w.Exp.Step(); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Exp.Tree.NumCandidates()
	if before < 2 {
		t.Fatalf("frontier too small: %d", before)
	}
	f.mailboxes[0] <- Message{Kind: MsgTransferReq, Dst: 1, NJobs: 1}
	w.drainMailbox()
	if w.jobsSent.Load() == 0 {
		t.Fatal("export did not happen")
	}
	if got := w.Exp.Tree.NumCandidates(); got != before-1 {
		t.Fatalf("candidates after export = %d, want %d", got, before-1)
	}
	// Destination dies before acking: the batch must come back.
	f.mailboxes[0] <- Message{Kind: MsgEvict, From: 1, Epoch: 2, Members: map[int]uint64{0: 1}}
	w.drainMailbox()
	if got := w.Exp.Tree.NumCandidates(); got != before {
		t.Fatalf("candidates after re-import = %d, want %d", got, before)
	}
	if w.jobsRecv.Load() != 1 {
		t.Fatalf("re-import must balance the sent counter: recv=%d", w.jobsRecv.Load())
	}
	if len(w.unacked[1]) != 0 {
		t.Fatal("custody not released after re-import")
	}
}
