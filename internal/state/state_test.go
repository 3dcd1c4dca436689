package state

import (
	"testing"

	"cloud9/internal/cvm"
	"cloud9/internal/expr"
)

// tinyProgram builds a minimal valid program with one function.
func tinyProgram(t *testing.T) *cvm.Program {
	t.Helper()
	p := cvm.NewProgram("t")
	p.AddGlobal("g", 8, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	b := cvm.NewFuncBuilder("main", 0)
	b.Alloca(16)
	r := b.Const(0, expr.W32)
	b.Ret(r)
	p.Funcs["main"] = b.Func()

	b2 := cvm.NewFuncBuilder("worker", 1)
	b2.Ret(0)
	p.Funcs["worker"] = b2.Func()
	if err := p.Validate(nil); err != nil {
		t.Fatal(err)
	}
	return p
}

func newState(t *testing.T) *S {
	t.Helper()
	s, err := New(tinyProgram(t), "main")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStateLayout(t *testing.T) {
	s := newState(t)
	if len(s.Procs) != 1 || len(s.Threads) != 1 {
		t.Fatal("initial state should have one process and one thread")
	}
	if s.Globals["g"] == 0 {
		t.Fatal("global not allocated")
	}
	ct := s.CurThread()
	if ct == nil || len(ct.Stack) != 1 || ct.Top().Fn.Name != "main" {
		t.Fatal("entry frame missing")
	}
	if len(ct.Top().SlotObjs) != 1 {
		t.Fatal("stack slot not allocated")
	}
	// Global contents initialized.
	_, os, off, ok := s.Resolve(ct.Proc, s.Globals["g"])
	if !ok || off != 0 {
		t.Fatal("global unresolvable")
	}
	if os.Read(0, expr.W8).ConstVal() != 1 {
		t.Fatal("global init bytes")
	}
}

func TestMissingEntry(t *testing.T) {
	if _, err := New(tinyProgram(t), "nope"); err == nil {
		t.Fatal("missing entry should error")
	}
}

func TestGlobalAddressesIdenticalAcrossStates(t *testing.T) {
	a := newState(t)
	b := newState(t)
	if a.Globals["g"] != b.Globals["g"] {
		t.Fatal("global addresses must be deterministic")
	}
}

func TestForkIsolation(t *testing.T) {
	s := newState(t)
	tid := s.Cur
	addr := s.Threads[tid].Top().SlotObjs[0].Base

	child := s.Fork(2)
	// Write in the child; parent must not see it.
	space, os, off, _ := child.Resolve(child.CurThread().Proc, addr)
	w := space.Writable(os)
	w.Write(off, expr.Const(0xbeef, expr.W16))

	_, pos, poff, _ := s.Resolve(s.CurThread().Proc, addr)
	if got := pos.Read(poff, expr.W16); got.ConstVal() == 0xbeef {
		t.Fatal("fork did not isolate memory")
	}
	// Registers and stacks are independent too.
	child.CurThread().Top().SetReg(0, expr.Const(9, expr.W32))
	if s.CurThread().Top().Reg(0) != nil {
		t.Fatal("register fork leak")
	}
}

func TestForkPreservesCounters(t *testing.T) {
	s := newState(t)
	s.NewSymbol("x")
	s.NewWaitList()
	child := s.Fork(2)
	if child.NextSym != s.NextSym || child.NextWlist != s.NextWlist {
		t.Fatal("counters must fork")
	}
	// Counters advance independently afterwards.
	child.NewSymbol("y")
	if s.NextSym == child.NextSym {
		t.Fatal("counter entanglement")
	}
}

func TestPathChoices(t *testing.T) {
	var p *PathNode
	p = AppendChoice(p, 1)
	p = AppendChoice(p, 0)
	p = AppendChoice(p, 3)
	got := PathChoices(p)
	if len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 3 {
		t.Fatalf("choices = %v", got)
	}
	if PathChoices(nil) != nil {
		t.Fatal("nil path should be empty")
	}
	// Persistence: extending does not affect the prefix.
	q := AppendChoice(p, 2)
	if len(PathChoices(p)) != 3 || len(PathChoices(q)) != 4 {
		t.Fatal("path persistence")
	}
}

func TestWaitListSleepNotify(t *testing.T) {
	s := newState(t)
	fn := s.Prog.Func("worker")
	t2, err := s.CreateThread(s.CurThread().Proc, fn, []*expr.Expr{expr.Const(0, expr.W64)})
	if err != nil {
		t.Fatal(err)
	}
	wl := s.NewWaitList()
	s.Sleep(t2, wl)
	if s.Threads[t2].Status != ThreadSleeping {
		t.Fatal("thread should sleep")
	}
	if got := s.Runnable(); len(got) != 1 || got[0] != s.Cur {
		t.Fatalf("runnable = %v", got)
	}
	woken := s.Notify(wl, false)
	if len(woken) != 1 || woken[0] != t2 {
		t.Fatalf("woken = %v", woken)
	}
	if s.Threads[t2].Status != ThreadRunnable {
		t.Fatal("thread should wake")
	}
	// Notify on empty list is a no-op.
	if s.Notify(wl, true) != nil {
		t.Fatal("empty notify should wake nobody")
	}
}

func TestNotifyAll(t *testing.T) {
	s := newState(t)
	fn := s.Prog.Func("worker")
	wl := s.NewWaitList()
	var tids []ThreadID
	for i := 0; i < 3; i++ {
		tid, err := s.CreateThread(s.CurThread().Proc, fn, []*expr.Expr{expr.Const(0, expr.W64)})
		if err != nil {
			t.Fatal(err)
		}
		s.Sleep(tid, wl)
		tids = append(tids, tid)
	}
	woken := s.Notify(wl, true)
	if len(woken) != 3 {
		t.Fatalf("woken = %v", woken)
	}
}

func TestThreadTerminationWakesJoiners(t *testing.T) {
	s := newState(t)
	fn := s.Prog.Func("worker")
	t2, _ := s.CreateThread(s.CurThread().Proc, fn, []*expr.Expr{expr.Const(0, expr.W64)})
	// Main joins t2.
	s.Sleep(s.Cur, s.Threads[t2].JoinWlist)
	s.TerminateThread(t2, expr.Const(7, expr.W32))
	if s.Threads[s.Cur].Status != ThreadRunnable {
		t.Fatal("joiner not woken by termination")
	}
	if s.Threads[t2].Result.ConstVal() != 7 {
		t.Fatal("thread result lost")
	}
}

func TestProcessForkSharesNothingPrivate(t *testing.T) {
	s := newState(t)
	parentProc := s.CurThread().Proc
	pid, ctid := s.ForkProcess(s.Cur)
	if pid == parentProc {
		t.Fatal("fork returned parent pid")
	}
	child := s.Threads[ctid]
	if child.Proc != pid {
		t.Fatal("child thread in wrong process")
	}
	if s.Procs[pid].MainThread != ctid {
		t.Fatal("child main thread")
	}
	// Private write in child's space invisible to parent.
	addr := s.Globals["g"]
	space, os, off, _ := s.Resolve(pid, addr)
	w := space.Writable(os)
	w.Write(off, expr.Const(0xff, expr.W8))
	_, pos, poff, _ := s.Resolve(parentProc, addr)
	if pos.Read(poff, expr.W8).ConstVal() == 0xff {
		t.Fatal("process fork did not CoW the address space")
	}
}

func TestMakeSharedVisibleToAllProcesses(t *testing.T) {
	s := newState(t)
	parent := s.CurThread().Proc
	addr := s.Globals["g"]
	if !s.MakeShared(parent, addr) {
		t.Fatal("make_shared failed")
	}
	pid, _ := s.ForkProcess(s.Cur)
	// Write via child; parent must see it (same shared object).
	space, os, off, ok := s.Resolve(pid, addr)
	if !ok {
		t.Fatal("shared object not visible in child")
	}
	w := space.Writable(os)
	w.Write(off, expr.Const(0x55, expr.W8))
	_, pos, poff, _ := s.Resolve(parent, addr)
	if pos.Read(poff, expr.W8).ConstVal() != 0x55 {
		t.Fatal("shared write not visible to parent")
	}
}

func TestExitProcessWakesWaiters(t *testing.T) {
	s := newState(t)
	pid, _ := s.ForkProcess(s.Cur)
	s.Sleep(s.Cur, s.Procs[pid].ExitWlist)
	s.ExitProcess(pid, 42)
	if s.Threads[s.Cur].Status != ThreadRunnable {
		t.Fatal("waiter not woken on exit")
	}
	if !s.Procs[pid].Exited || s.Procs[pid].ExitCode != 42 {
		t.Fatal("exit bookkeeping")
	}
}

func TestLiveThreadsAndTermination(t *testing.T) {
	s := newState(t)
	if s.LiveThreads() != 1 {
		t.Fatal("one live thread expected")
	}
	s.TerminateThread(s.Cur, nil)
	if s.LiveThreads() != 0 {
		t.Fatal("no live threads expected")
	}
	if s.Terminated() {
		t.Fatal("state termination is explicit")
	}
	s.SetTerminated(TermExit, "done")
	if !s.Terminated() || s.Term != TermExit {
		t.Fatal("SetTerminated")
	}
}

func TestAuxClonerDeepCopies(t *testing.T) {
	s := newState(t)
	s.Aux["plain"] = 42
	s.Aux["cloned"] = &testAux{v: 1}
	child := s.Fork(2)
	child.Aux["cloned"].(*testAux).v = 99
	if s.Aux["cloned"].(*testAux).v != 1 {
		t.Fatal("AuxCloner value not deep-copied")
	}
	if child.Aux["plain"] != 42 {
		t.Fatal("plain aux value lost")
	}
}

type testAux struct{ v int }

func (a *testAux) CloneAux() interface{} { return &testAux{v: a.v} }

func TestPushPopFrameReleasesSlots(t *testing.T) {
	s := newState(t)
	th := s.CurThread()
	fn := s.Prog.Func("main")
	if err := s.PushFrame(th, fn, nil, -1); err != nil {
		t.Fatal(err)
	}
	addr := th.Top().SlotObjs[0].Base
	if _, _, _, ok := s.Resolve(th.Proc, addr); !ok {
		t.Fatal("slot should be mapped")
	}
	s.PopFrame(th)
	if _, _, _, ok := s.Resolve(th.Proc, addr); ok {
		t.Fatal("slot should be unmapped after pop")
	}
}
