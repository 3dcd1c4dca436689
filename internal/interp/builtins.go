package interp

import (
	"fmt"

	"cloud9/internal/expr"
	"cloud9/internal/state"
)

// OutputBuffer collects program output per state (what the program wrote
// to stdout). It forks with the state.
type OutputBuffer struct{ Bytes []byte }

// CloneAux deep-copies the buffer on state fork.
func (o *OutputBuffer) CloneAux() interface{} {
	return &OutputBuffer{Bytes: append([]byte(nil), o.Bytes...)}
}

// Output returns s's output buffer, creating it on demand.
func Output(s *state.S) *OutputBuffer {
	if o, ok := s.Aux["out"].(*OutputBuffer); ok {
		return o
	}
	o := &OutputBuffer{}
	s.Aux["out"] = o
	return o
}

func concrete(c *Ctx, e *expr.Expr) (uint64, error) { return c.Concretize(e) }

// registerCore installs the engine intrinsics: the Table 1 symbolic
// system calls, heap management, symbolic-input marking, and the
// symbolic test API primitives of Table 2.
func registerCore(in *Interp) {
	reg := in.Register

	// ---- Table 1: symbolic system calls ----

	reg("cloud9_make_shared", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		addr, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		if !c.MakeShared(addr) {
			return nil, fmt.Errorf("make_shared of unmapped %#x", addr)
		}
		return expr.Const(0, expr.W32), nil
	})

	reg("cloud9_thread_create", 2, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		namePtr, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		name, err := c.ReadCString(namePtr)
		if err != nil {
			return nil, err
		}
		tid, err := c.ThreadCreate(name, []*expr.Expr{expr.ZExt(a[1], expr.W64)})
		if err != nil {
			return nil, err
		}
		return expr.Const(uint64(tid), expr.W32), nil
	})

	reg("cloud9_thread_terminate", 0, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		c.ThreadTerminate()
		return nil, nil
	})

	reg("cloud9_process_fork", 0, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		pid, ctid := c.ProcessFork()
		// The child thread resumes after this call; its copy of the
		// destination register must read 0 ("I am the child").
		child := c.S.Threads[ctid]
		childFrame := child.Top()
		// Find the call instruction we are executing to patch its dest.
		// The frame PC was pre-advanced, so the call is at PC-1.
		f := childFrame.Fn.Blocks[childFrame.Block].Instrs[childFrame.PC-1]
		if f.A >= 0 {
			childFrame.SetReg(f.A, expr.Const(0, expr.W32))
		}
		return expr.Const(uint64(pid), expr.W32), nil
	})

	reg("cloud9_process_terminate", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		code, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		c.ProcessTerminate(int64(code))
		return nil, nil
	})

	reg("cloud9_get_pid", 0, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		pid, _ := c.Context()
		return expr.Const(uint64(pid), expr.W32), nil
	})

	reg("cloud9_get_tid", 0, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		_, tid := c.Context()
		return expr.Const(uint64(tid), expr.W32), nil
	})

	reg("cloud9_thread_preempt", 0, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		c.Preempt()
		return expr.Const(0, expr.W32), nil
	})

	reg("cloud9_thread_sleep", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		wl, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		c.SleepOn(wl)
		return expr.Const(0, expr.W32), nil
	})

	reg("cloud9_thread_notify", 2, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		wl, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		all, err := concrete(c, a[1])
		if err != nil {
			return nil, err
		}
		c.Notify(wl, all != 0)
		return expr.Const(0, expr.W32), nil
	})

	reg("cloud9_get_wlist", 0, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		return expr.Const(c.GetWaitList(), expr.W64), nil
	})

	// ---- Thread join support ----

	reg("__c9_thread_alive", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		tid, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		t, ok := c.S.Threads[state.ThreadID(tid)]
		if ok && t.Status != state.ThreadTerminated {
			return expr.Const(1, expr.W32), nil
		}
		return expr.Const(0, expr.W32), nil
	})

	reg("__c9_join_wlist", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		tid, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		t, ok := c.S.Threads[state.ThreadID(tid)]
		if !ok {
			return nil, fmt.Errorf("join of unknown thread %d", tid)
		}
		return expr.Const(t.JoinWlist, expr.W64), nil
	})

	// ---- Heap ----

	reg("malloc", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		size, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		ptr, err := c.Malloc(int64(size))
		if err != nil {
			return nil, err
		}
		return expr.Const(ptr, expr.W64), nil
	})

	reg("calloc", 2, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		n, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		sz, err := concrete(c, a[1])
		if err != nil {
			return nil, err
		}
		ptr, err := c.Malloc(int64(n * sz))
		if err != nil {
			return nil, err
		}
		return expr.Const(ptr, expr.W64), nil // fresh objects are zeroed
	})

	reg("free", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		addr, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		if addr == 0 {
			return nil, nil // free(NULL) is a no-op
		}
		return nil, c.Free(addr)
	})

	// ---- Symbolic test API (Table 2) ----

	reg("cloud9_make_symbolic", 3, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		ptr, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		n, err := concrete(c, a[1])
		if err != nil {
			return nil, err
		}
		namePtr, err := concrete(c, a[2])
		if err != nil {
			return nil, err
		}
		name, err := c.ReadCString(namePtr)
		if err != nil {
			return nil, err
		}
		first := c.S.NextSym
		bytes := c.NewSymbolicBytes(name, int64(n))
		c.S.Symbolics = append(c.S.Symbolics,
			state.SymbolicRegion{Name: name, First: first, Len: int64(n)})
		return expr.Const(0, expr.W32), c.WriteBytes(ptr, bytes)
	})

	reg("cloud9_assume", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		cond := a[0]
		if cond.Width() != expr.W1 {
			cond = expr.Ne(cond, expr.Const(0, cond.Width()))
		}
		return expr.Const(0, expr.W32), c.Assume(cond)
	})

	reg("cloud9_fi_enable", 0, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		c.S.FaultInj = true
		return expr.Const(0, expr.W32), nil
	})

	reg("cloud9_fi_disable", 0, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		c.S.FaultInj = false
		return expr.Const(0, expr.W32), nil
	})

	reg("cloud9_set_max_heap", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		n, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		c.S.MaxHeap = int64(n)
		return expr.Const(0, expr.W32), nil
	})

	reg("cloud9_set_scheduler", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		policy, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		c.S.ForkSched = policy == 1
		if policy != 1 {
			c.S.SchedBound = 0
		}
		return expr.Const(0, expr.W32), nil
	})

	// cloud9_set_sched_bound(c): explore thread schedules with at most c
	// preemptive context switches per path — the iterative context
	// bounding scheduler of §5.1.
	reg("cloud9_set_sched_bound", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		bound, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		c.S.ForkSched = true
		c.S.SchedBound = int(bound)
		return expr.Const(0, expr.W32), nil
	})

	// ---- Process control ----

	reg("exit", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		code, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		c.ProcessTerminate(int64(code))
		return nil, nil
	})

	reg("abort", 0, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		return nil, fmt.Errorf("abort() called")
	})

	reg("__c9_proc_exited", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		pid, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		p, ok := c.S.Procs[state.ProcessID(pid)]
		if ok && p.Exited {
			return expr.Const(1, expr.W32), nil
		}
		return expr.Const(0, expr.W32), nil
	})

	reg("__c9_proc_exit_wlist", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		pid, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		p, ok := c.S.Procs[state.ProcessID(pid)]
		if !ok {
			return nil, fmt.Errorf("wait for unknown process %d", pid)
		}
		return expr.Const(p.ExitWlist, expr.W64), nil
	})

	reg("__c9_proc_exit_code", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		pid, err := concrete(c, a[0])
		if err != nil {
			return nil, err
		}
		p, ok := c.S.Procs[state.ProcessID(pid)]
		if !ok {
			return nil, fmt.Errorf("wait for unknown process %d", pid)
		}
		return expr.Const(uint64(p.ExitCode), expr.W32), nil
	})

	// ---- Output (stdout analog) ----

	reg("__c9_out_byte", 1, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		v := a[0]
		if !v.IsConst() {
			// Concretize output bytes; the choice is recorded in the
			// path condition so test cases remain faithful.
			cv, err := concrete(c, v)
			if err != nil {
				return nil, err
			}
			v = expr.Const(cv, expr.W8)
		}
		Output(c.S).Bytes = append(Output(c.S).Bytes, byte(v.ConstVal()))
		return expr.Const(0, expr.W32), nil
	})

	// ---- Deterministic time ----

	reg("time", 0, func(c *Ctx, a []*expr.Expr) (*expr.Expr, error) {
		tick, _ := c.S.Aux["time"].(uint64)
		c.S.Aux["time"] = tick + 1
		return expr.Const(1300000000+tick, expr.W64), nil
	})
}
