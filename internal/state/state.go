// Package state models one symbolic execution state: a set of processes
// (each with its own copy-on-write address space), cooperative threads
// with call stacks, a shared CoW domain for inter-process memory, wait
// queues, the path condition, and the branch-choice path from the root of
// the execution tree (the job encoding used for worker-to-worker
// transfers).
package state

import (
	"fmt"

	"cloud9/internal/cvm"
	"cloud9/internal/expr"
	"cloud9/internal/mem"
	"cloud9/internal/solver"
)

// ProcessID identifies a process within a state.
type ProcessID int

// ThreadID identifies a thread within a state.
type ThreadID int

// ThreadStatus is the scheduler-visible thread state.
type ThreadStatus int

// Thread statuses.
const (
	ThreadRunnable ThreadStatus = iota
	ThreadSleeping
	ThreadTerminated
)

// Registers live in fixed pages of regPageSize entries.
const (
	regPageBits = 5
	regPageSize = 1 << regPageBits
	regPageMask = regPageSize - 1
)

type regPage [regPageSize]*expr.Expr

// Frame is one activation record.
//
// Registers are paged copy-on-write: Clone copies only the page table
// and marks every page shared in both frames, and the first SetReg to a
// shared page copies that page. Bit g of the shared mask covers page
// group g, a run of 1<<groupShift pages; groupShift is 0 unless the
// frame has more than 64 pages, so one uint64 covers a frame of any
// size.
type Frame struct {
	Fn       *cvm.Func
	Block    int
	PC       int
	SlotObjs []*mem.Object // one memory object per stack slot; never written after PushFrame, so clones share it
	RetReg   int           // caller register receiving the return value (-1: none)

	pages      []*regPage
	shared     uint64 // bit g: page group g may be referenced by another frame
	groupShift uint8
}

// newFrame returns a frame for fn with every register nil and every
// page privately owned.
func newFrame(fn *cvm.Func, retReg int) *Frame {
	n := (fn.NumRegs + regPageSize - 1) >> regPageBits
	f := &Frame{Fn: fn, RetReg: retReg, pages: make([]*regPage, n)}
	backing := make([]regPage, n)
	for i := range f.pages {
		f.pages[i] = &backing[i]
	}
	for n > 64<<f.groupShift {
		f.groupShift++
	}
	return f
}

// Reg returns register i.
func (f *Frame) Reg(i int) *expr.Expr { return f.pages[i>>regPageBits][i&regPageMask] }

// SetReg sets register i, first copying its page group if another frame
// may still reference it.
func (f *Frame) SetReg(i int, e *expr.Expr) {
	p := i >> regPageBits
	if g := p >> f.groupShift; f.shared>>g&1 != 0 {
		f.own(g)
	}
	f.pages[p][i&regPageMask] = e
}

// own gives f private copies of the pages in group g.
func (f *Frame) own(g int) {
	lo := g << f.groupShift
	hi := min(lo+1<<f.groupShift, len(f.pages))
	fresh := make([]regPage, hi-lo)
	for i := range fresh {
		fresh[i] = *f.pages[lo+i]
		f.pages[lo+i] = &fresh[i]
	}
	f.shared &^= 1 << g
}

// Clone returns a copy of the frame that shares every register page and
// the slot objects with f. Both frames mark all pages shared, so each
// copies a page on its first write to it. Expressions are immutable and
// slot objects are identities shared with the clone's address space.
func (f *Frame) Clone() *Frame {
	f.shared = ^uint64(0)
	dup := *f
	dup.pages = append([]*regPage(nil), f.pages...)
	return &dup
}

// Thread is a cooperative thread.
type Thread struct {
	ID        ThreadID
	Proc      ProcessID
	Status    ThreadStatus
	Stack     []*Frame
	WaitList  uint64     // wait queue the thread sleeps on (when sleeping)
	Result    *expr.Expr // value passed to thread exit (joinable)
	Joiners   []ThreadID // threads waiting to join this one
	JoinWlist uint64     // wait queue notified when this thread terminates
}

// Clone deep-copies the thread.
func (t *Thread) Clone() *Thread {
	dup := *t
	dup.Stack = make([]*Frame, len(t.Stack))
	for i, f := range t.Stack {
		dup.Stack[i] = f.Clone()
	}
	dup.Joiners = append([]ThreadID(nil), t.Joiners...)
	return &dup
}

// Top returns the active frame.
func (t *Thread) Top() *Frame { return t.Stack[len(t.Stack)-1] }

// Process is an OS-process analog: an address space plus identity.
type Process struct {
	ID         ProcessID
	Parent     ProcessID
	Space      *mem.AddressSpace
	MainThread ThreadID // returning from this thread's entry exits the process
	Exited     bool
	ExitCode   int64
	ExitWlist  uint64     // wait queue notified on exit (for wait())
	Waiters    []ThreadID // threads blocked in wait() for this process
}

// Clone deep-copies process metadata and CoW-clones the address space.
func (p *Process) Clone() *Process {
	dup := *p
	dup.Space = p.Space.Clone()
	dup.Waiters = append([]ThreadID(nil), p.Waiters...)
	return &dup
}

// TerminationKind classifies why a state stopped.
type TerminationKind int

// Termination kinds.
const (
	TermNone      TerminationKind = iota
	TermExit                      // program exited normally
	TermError                     // memory error, assert failure, abort
	TermHang                      // deadlock or instruction-limit hang
	TermUnsatPath                 // infeasible (should not normally surface)
)

// S is one symbolic execution state. It is the unit the engine forks,
// schedules and transfers between workers.
type S struct {
	ID    uint64
	Prog  *cvm.Program
	Procs map[ProcessID]*Process
	// Threads in creation order; index is not the ID.
	Threads map[ThreadID]*Thread
	Shared  *mem.AddressSpace // CoW domain for cloud9_make_shared objects
	Alloc   *mem.Allocator
	Globals map[string]uint64 // global name -> address (identical across states)

	Constraints *solver.ConstraintSet
	Cur         ThreadID

	// Path is the branch-choice string from the tree root: the job
	// encoding (§3.2). Persistent list; shared with parents.
	Path *PathNode

	// Deterministic per-state counters (replay-stable).
	NextTID   ThreadID
	NextPID   ProcessID
	NextWlist uint64
	NextSym   uint64

	WaitLists map[uint64][]ThreadID

	Steps     uint64 // instructions executed along this path
	Forks     int
	Term      TerminationKind
	TermMsg   string
	MaxSteps  uint64 // hang-detection instruction budget (0 = unlimited)
	MaxHeap   int64  // cloud9_set_max_heap (0 = unlimited)
	HeapUsed  int64
	ForkSched bool // fork the state on every scheduling decision

	// SchedBound caps preemptive context switches along a path when
	// ForkSched is on — the iterative context bounding scheduler of
	// Musuvathi et al. that §5.1 lists (0 = unbounded, i.e. exhaustive).
	SchedBound  int
	CtxSwitches int // preemptive switches taken along this path

	// FaultInj enables error-return fault injection (cloud9_fi_enable).
	FaultInj    bool
	FaultsTaken int // number of injected faults along this path

	// Decision carries a predetermined fork choice into a re-executed
	// builtin call (see interp.Ctx.Decide).
	Decision    int
	HasDecision bool

	// Aux carries model-defined per-state values that must fork with the
	// state but hold no guest memory (e.g. scheduling cursor). Values
	// must be immutable or cloned via AuxCloner.
	Aux map[string]interface{}

	// Symbolics records the symbolic input regions created along this
	// path, for test-case rendering.
	Symbolics []SymbolicRegion
}

// SymbolicRegion names a run of symbolic byte variables created by one
// make_symbolic call.
type SymbolicRegion struct {
	Name  string
	First uint64 // first variable id
	Len   int64
}

// PathNode is one branch decision (persistent list to the root).
type PathNode struct {
	Parent *PathNode
	Choice uint8
	Depth  int
}

// AppendChoice extends the path.
func AppendChoice(p *PathNode, c uint8) *PathNode {
	d := 0
	if p != nil {
		d = p.Depth
	}
	return &PathNode{Parent: p, Choice: c, Depth: d + 1}
}

// PathChoices materializes the root-to-leaf choice string.
func PathChoices(p *PathNode) []uint8 {
	if p == nil {
		return nil
	}
	out := make([]uint8, p.Depth)
	for n := p; n != nil; n = n.Parent {
		out[n.Depth-1] = n.Choice
	}
	return out
}

// New creates the initial state for prog with one process and one thread
// stopped at the entry of function entry.
func New(prog *cvm.Program, entry string) (*S, error) {
	fn := prog.Func(entry)
	if fn == nil {
		return nil, fmt.Errorf("state: no function %q", entry)
	}
	s := &S{
		ID:        1,
		Prog:      prog,
		Procs:     map[ProcessID]*Process{},
		Threads:   map[ThreadID]*Thread{},
		Shared:    mem.NewAddressSpace(),
		Alloc:     mem.NewAllocator(0x10000),
		Globals:   map[string]uint64{},
		WaitLists: map[uint64][]ThreadID{},
		NextTID:   1,
		NextPID:   1,
		NextWlist: 1,
		Aux:       map[string]interface{}{},
	}
	p := &Process{ID: s.NextPID, Space: mem.NewAddressSpace()}
	s.NextPID++
	p.ExitWlist = s.NewWaitList()
	s.Procs[p.ID] = p

	// Globals are allocated before any fork, so every state sees them at
	// identical addresses.
	for _, g := range prog.Globals {
		obj := s.Alloc.Allocate(g.Size, "global "+g.Name)
		os := mem.NewObjectState(obj)
		os.InitConcrete(g.Init)
		p.Space.Bind(os)
		s.Globals[g.Name] = obj.Base
	}

	t := &Thread{ID: s.NextTID, Proc: p.ID, Status: ThreadRunnable}
	s.NextTID++
	t.JoinWlist = s.NewWaitList()
	s.Threads[t.ID] = t
	p.MainThread = t.ID
	s.Cur = t.ID
	if err := s.PushFrame(t, fn, nil, -1); err != nil {
		return nil, err
	}
	return s, nil
}

// Fork deep-copies the state for a branch. The caller appends the branch
// constraint and path choice afterwards.
func (s *S) Fork(newID uint64) *S {
	dup := &S{
		ID:          newID,
		Prog:        s.Prog,
		Procs:       make(map[ProcessID]*Process, len(s.Procs)),
		Threads:     make(map[ThreadID]*Thread, len(s.Threads)),
		Shared:      s.Shared.Clone(),
		Alloc:       s.Alloc.Clone(),
		Globals:     s.Globals, // immutable after New
		Constraints: s.Constraints,
		Cur:         s.Cur,
		Path:        s.Path,
		NextTID:     s.NextTID,
		NextPID:     s.NextPID,
		NextWlist:   s.NextWlist,
		NextSym:     s.NextSym,
		WaitLists:   make(map[uint64][]ThreadID, len(s.WaitLists)),
		Steps:       s.Steps,
		Forks:       s.Forks,
		MaxSteps:    s.MaxSteps,
		MaxHeap:     s.MaxHeap,
		HeapUsed:    s.HeapUsed,
		ForkSched:   s.ForkSched,
		SchedBound:  s.SchedBound,
		CtxSwitches: s.CtxSwitches,
		FaultInj:    s.FaultInj,
		FaultsTaken: s.FaultsTaken,
		Aux:         make(map[string]interface{}, len(s.Aux)),
	}
	for id, p := range s.Procs {
		dup.Procs[id] = p.Clone()
	}
	for id, t := range s.Threads {
		dup.Threads[id] = t.Clone()
	}
	for id, q := range s.WaitLists {
		dup.WaitLists[id] = append([]ThreadID(nil), q...)
	}
	for k, v := range s.Aux {
		if c, ok := v.(AuxCloner); ok {
			dup.Aux[k] = c.CloneAux()
		} else {
			dup.Aux[k] = v
		}
	}
	dup.Symbolics = append([]SymbolicRegion(nil), s.Symbolics...)
	dup.Decision = s.Decision
	dup.HasDecision = s.HasDecision
	return dup
}

// Reuse turns s itself into the last child of a fork, the cheap
// alternative to s.Fork(newID) followed by s.Release(): it takes the new
// ID and resets what Fork does not carry over (the termination verdict),
// keeping every register, memory reference and counter in place.
func (s *S) Reuse(newID uint64) *S {
	s.ID = newID
	s.Term, s.TermMsg = TermNone, ""
	return s
}

// AuxCloner lets Aux values define deep-copy behavior on fork.
type AuxCloner interface{ CloneAux() interface{} }

// Release drops memory references held by the state (call when the state
// becomes dead).
func (s *S) Release() {
	for _, p := range s.Procs {
		p.Space.Release()
	}
	s.Shared.Release()
}

// CurThread returns the running thread.
func (s *S) CurThread() *Thread { return s.Threads[s.Cur] }

// CurProc returns the running thread's process.
func (s *S) CurProc() *Process { return s.Procs[s.CurThread().Proc] }

// PushFrame activates fn on thread t with the given argument values.
func (s *S) PushFrame(t *Thread, fn *cvm.Func, args []*expr.Expr, retReg int) error {
	if len(args) != fn.NumParams {
		return fmt.Errorf("state: call %s with %d args, want %d", fn.Name, len(args), fn.NumParams)
	}
	f := newFrame(fn, retReg)
	for i, a := range args {
		f.SetReg(i, a)
	}
	if n := len(fn.Slots); n > 0 {
		f.SlotObjs = make([]*mem.Object, n)
		space := s.Procs[t.Proc].Space
		for i, size := range fn.Slots {
			obj := s.Alloc.Allocate(size, "local "+fn.Name)
			space.Bind(mem.NewObjectState(obj))
			f.SlotObjs[i] = obj
		}
	}
	t.Stack = append(t.Stack, f)
	return nil
}

// PopFrame removes the top frame, freeing its stack objects, and returns
// it. Returns nil when the stack is empty.
func (s *S) PopFrame(t *Thread) *Frame {
	if len(t.Stack) == 0 {
		return nil
	}
	f := t.Top()
	t.Stack = t.Stack[:len(t.Stack)-1]
	space := s.Procs[t.Proc].Space
	for _, obj := range f.SlotObjs {
		if os := space.Unbind(obj.Base); os != nil {
			os.Unref()
		}
	}
	return f
}

// Resolve finds the object containing addr visible to process pid:
// first the process space, then the shared CoW domain.
func (s *S) Resolve(pid ProcessID, addr uint64) (*mem.AddressSpace, *mem.ObjectState, int64, bool) {
	p := s.Procs[pid]
	if os, off, ok := p.Space.Resolve(addr); ok {
		return p.Space, os, off, true
	}
	if os, off, ok := s.Shared.Resolve(addr); ok {
		return s.Shared, os, off, true
	}
	return nil, nil, 0, false
}

// MakeShared moves the object containing addr from the current process's
// space into the shared CoW domain, making it visible to all processes
// (cloud9_make_shared).
func (s *S) MakeShared(pid ProcessID, addr uint64) bool {
	p := s.Procs[pid]
	os, _, ok := p.Space.Resolve(addr)
	if !ok {
		return false
	}
	p.Space.Unbind(os.Obj.Base)
	s.Shared.Bind(os)
	return true
}

// NewSymbol returns a fresh symbolic byte variable named name[i].
func (s *S) NewSymbol(name string) *expr.Expr {
	id := s.NextSym
	s.NextSym++
	return expr.Var(id, name)
}

// NewWaitList allocates a wait queue id (cloud9_get_wlist).
func (s *S) NewWaitList() uint64 {
	id := s.NextWlist
	s.NextWlist++
	s.WaitLists[id] = nil
	return id
}

// Sleep parks thread tid on wait list wl (cloud9_thread_sleep).
func (s *S) Sleep(tid ThreadID, wl uint64) {
	t := s.Threads[tid]
	t.Status = ThreadSleeping
	t.WaitList = wl
	s.WaitLists[wl] = append(s.WaitLists[wl], tid)
}

// Notify wakes one or all threads from wl (cloud9_thread_notify). It
// returns the woken thread ids.
func (s *S) Notify(wl uint64, all bool) []ThreadID {
	q := s.WaitLists[wl]
	if len(q) == 0 {
		return nil
	}
	var woken []ThreadID
	n := 1
	if all {
		n = len(q)
	}
	for i := 0; i < n; i++ {
		tid := q[i]
		t := s.Threads[tid]
		if t != nil && t.Status == ThreadSleeping {
			t.Status = ThreadRunnable
			t.WaitList = 0
			woken = append(woken, tid)
		}
	}
	s.WaitLists[wl] = append([]ThreadID(nil), q[n:]...)
	return woken
}

// Runnable returns the ids of runnable threads in deterministic
// (ascending) order.
func (s *S) Runnable() []ThreadID {
	var out []ThreadID
	for id := ThreadID(1); id < s.NextTID; id++ {
		if t, ok := s.Threads[id]; ok && t.Status == ThreadRunnable {
			out = append(out, id)
		}
	}
	return out
}

// LiveThreads returns the number of non-terminated threads.
func (s *S) LiveThreads() int {
	n := 0
	for _, t := range s.Threads {
		if t.Status != ThreadTerminated {
			n++
		}
	}
	return n
}

// CreateThread starts fn as a new thread in process pid
// (cloud9_thread_create).
func (s *S) CreateThread(pid ProcessID, fn *cvm.Func, args []*expr.Expr) (ThreadID, error) {
	t := &Thread{ID: s.NextTID, Proc: pid, Status: ThreadRunnable}
	s.NextTID++
	t.JoinWlist = s.NewWaitList()
	s.Threads[t.ID] = t
	if err := s.PushFrame(t, fn, args, -1); err != nil {
		delete(s.Threads, t.ID)
		return 0, err
	}
	return t.ID, nil
}

// TerminateThread marks t terminated, unwinds its stack, and wakes any
// threads sleeping on its join wait list.
func (s *S) TerminateThread(tid ThreadID, result *expr.Expr) {
	t := s.Threads[tid]
	for len(t.Stack) > 0 {
		s.PopFrame(t)
	}
	t.Status = ThreadTerminated
	t.Result = result
	if t.JoinWlist != 0 {
		s.Notify(t.JoinWlist, true)
	}
}

// ForkProcess duplicates the current process (cloud9_process_fork):
// the child gets a CoW clone of the parent's address space and a new
// thread cloned from the calling thread.
func (s *S) ForkProcess(callingThread ThreadID) (ProcessID, ThreadID) {
	parent := s.Threads[callingThread].Proc
	child := &Process{
		ID:     s.NextPID,
		Parent: parent,
		Space:  s.Procs[parent].Space.Clone(),
	}
	s.NextPID++
	child.ExitWlist = s.NewWaitList()
	s.Procs[child.ID] = child

	ct := s.Threads[callingThread].Clone()
	ct.ID = s.NextTID
	s.NextTID++
	ct.Proc = child.ID
	ct.Joiners = nil
	ct.JoinWlist = s.NewWaitList()
	s.Threads[ct.ID] = ct
	child.MainThread = ct.ID
	return child.ID, ct.ID
}

// ExitProcess terminates all threads of pid, records the exit code, and
// wakes threads blocked waiting for the process.
func (s *S) ExitProcess(pid ProcessID, code int64) {
	for _, t := range s.Threads {
		if t.Proc == pid && t.Status != ThreadTerminated {
			s.TerminateThread(t.ID, nil)
		}
	}
	p := s.Procs[pid]
	p.Exited = true
	p.ExitCode = code
	if p.ExitWlist != 0 {
		s.Notify(p.ExitWlist, true)
	}
}

// Terminated reports whether the state has stopped.
func (s *S) Terminated() bool { return s.Term != TermNone }

// SetTerminated marks the state stopped.
func (s *S) SetTerminated(kind TerminationKind, msg string) {
	s.Term = kind
	s.TermMsg = msg
}
