package state

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"cloud9/internal/cvm"
	"cloud9/internal/expr"
	"cloud9/internal/mem"
)

// frameSizes covers the page edges, the largest function of any built-in
// target (652 registers, 21 pages), and frames over 64 pages, whose
// shared mask covers page groups instead of single pages.
var frameSizes = []int{0, 1, 31, 32, 33, 652, 64*regPageSize + 1, 200 * regPageSize}

// pushBig pushes a frame of fn with n registers onto s's current thread.
func pushBig(t *testing.T, s *S, n, retReg int) *Frame {
	t.Helper()
	fn := &cvm.Func{Name: fmt.Sprintf("f%d", n), NumRegs: n}
	th := s.CurThread()
	if err := s.PushFrame(th, fn, nil, retReg); err != nil {
		t.Fatal(err)
	}
	return th.Top()
}

// checkRegs compares every register of f with the model.
func checkRegs(t *testing.T, what string, f *Frame, model []*expr.Expr) {
	t.Helper()
	for i, want := range model {
		if got := f.Reg(i); got != want {
			t.Fatalf("%s: reg %d = %v, want %v", what, i, got, want)
		}
	}
}

// TestFrameRegistersIsolatedAcrossForks: states forked repeatedly from
// one another, each writing random registers (often the same page as a
// sibling, often a different one), never see each other's writes.
func TestFrameRegistersIsolatedAcrossForks(t *testing.T) {
	for _, n := range frameSizes {
		t.Run(fmt.Sprint(n, "regs"), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n) + 1))
			root := newState(t)
			pushBig(t, root, n, -1)
			states := []*S{root}
			models := [][]*expr.Expr{make([]*expr.Expr, n)}
			for step := 0; step < 300; step++ {
				i := rng.Intn(len(states))
				if rng.Intn(4) == 0 || n == 0 {
					states = append(states, states[i].Fork(uint64(len(states)+1)))
					models = append(models, append([]*expr.Expr(nil), models[i]...))
				} else {
					// Bias toward the first pages so siblings often
					// write the same page.
					r := rng.Intn(n)
					if rng.Intn(2) == 0 {
						r = rng.Intn(min(n, 2*regPageSize))
					}
					v := expr.Const(uint64(step), expr.W32)
					states[i].CurThread().Top().SetReg(r, v)
					models[i][r] = v
				}
				for k, s := range states {
					checkRegs(t, fmt.Sprintf("step %d state %d", step, k), s.CurThread().Top(), models[k])
				}
			}
		})
	}
}

// TestForkChildWritesSamePageAndOtherPage pins the two basic cases in
// both directions: a write by either side of a fork, to the page the
// other side writes or to another page, stays private.
func TestForkChildWritesSamePageAndOtherPage(t *testing.T) {
	for _, childWrites := range []bool{true, false} {
		s := newState(t)
		pushBig(t, s, 652, -1)
		s.CurThread().Top().SetReg(3, expr.Const(1, expr.W32))
		c := s.Fork(2)
		w, r := c, s
		if !childWrites {
			w, r = s, c
		}
		wf, rf := w.CurThread().Top(), r.CurThread().Top()
		wf.SetReg(3, expr.Const(2, expr.W32))   // page 0, written before the fork
		wf.SetReg(4, expr.Const(3, expr.W32))   // page 0, never written
		wf.SetReg(651, expr.Const(4, expr.W32)) // last page
		rf.SetReg(5, expr.Const(5, expr.W32))   // page 0 on the other side
		if got := rf.Reg(3).ConstVal(); got != 1 {
			t.Fatalf("childWrites=%v: same-page write leaked: reg 3 = %d", childWrites, got)
		}
		if rf.Reg(4) != nil || rf.Reg(651) != nil {
			t.Fatalf("childWrites=%v: write leaked into the other state", childWrites)
		}
		if wf.Reg(5) != nil {
			t.Fatalf("childWrites=%v: the other state's write leaked back", childWrites)
		}
		if wf.Reg(3).ConstVal() != 2 || wf.Reg(4).ConstVal() != 3 || wf.Reg(651).ConstVal() != 4 {
			t.Fatalf("childWrites=%v: writer lost its own writes", childWrites)
		}
	}
}

// TestReturnIntoSharedCallerFrame: after a fork, a callee returning in
// one state writes its RetReg into a caller frame whose pages the other
// state still shares, as execRet does.
func TestReturnIntoSharedCallerFrame(t *testing.T) {
	s := newState(t)
	caller := pushBig(t, s, 652, -1)
	caller.SetReg(40, expr.Const(7, expr.W32))
	pushBig(t, s, 33, 40) // callee returns into caller register 40
	c := s.Fork(2)
	for _, st := range []*S{c, s} {
		th := st.CurThread()
		f := st.PopFrame(th)
		th.Top().SetReg(f.RetReg, expr.Const(st.ID, expr.W32))
	}
	if got := c.CurThread().Top().Reg(40).ConstVal(); got != 2 {
		t.Fatalf("child caller reg = %d, want its own return value 2", got)
	}
	if got := s.CurThread().Top().Reg(40).ConstVal(); got != 1 {
		t.Fatalf("parent caller reg = %d, want its own return value 1", got)
	}

	// One side returns, the other does not: the untouched caller keeps
	// the pre-fork value.
	s = newState(t)
	pushBig(t, s, 652, -1).SetReg(40, expr.Const(7, expr.W32))
	pushBig(t, s, 1, 40)
	c = s.Fork(2)
	th := c.CurThread()
	f := c.PopFrame(th)
	th.Top().SetReg(f.RetReg, expr.Const(9, expr.W32))
	callerInParent := s.CurThread().Stack[len(s.CurThread().Stack)-2]
	if got := callerInParent.Reg(40).ConstVal(); got != 7 {
		t.Fatalf("return in the child changed the parent's caller frame: reg 40 = %d", got)
	}
}

// TestForkProcessRegistersIsolated: the thread a process fork clones
// shares its frames' pages with the calling thread, and writes on
// either side stay private.
func TestForkProcessRegistersIsolated(t *testing.T) {
	s := newState(t)
	pushBig(t, s, 652, -1).SetReg(10, expr.Const(1, expr.W32))
	parentTop := s.CurThread().Top()
	_, ctid := s.ForkProcess(s.Cur)
	childTop := s.Threads[ctid].Top()
	childTop.SetReg(10, expr.Const(2, expr.W32))
	parentTop.SetReg(11, expr.Const(3, expr.W32))
	if parentTop.Reg(10).ConstVal() != 1 || childTop.Reg(11) != nil {
		t.Fatal("process fork shares a written register page")
	}
	if childTop.Reg(10).ConstVal() != 2 || parentTop.Reg(11).ConstVal() != 3 {
		t.Fatal("process fork lost a write")
	}
}

// forkBytes returns the heap bytes one fork of a state costs, with the
// writes that typically follow it: the state has a regs-register top
// frame over main's frame and objects bound objects, and each child
// writes one register and stores one byte.
func forkBytes(t *testing.T, regs, objects int) uint64 {
	t.Helper()
	s := newState(t)
	pushBig(t, s, regs, -1)
	space := s.CurProc().Space
	for space.NumObjects() < objects {
		space.Bind(mem.NewObjectState(s.Alloc.Allocate(64, "heap")))
	}
	store := func(st *S) {
		st.CurThread().Top().SetReg(regs-1, expr.Const(st.ID, expr.W32))
		sp, os, off, ok := st.Resolve(st.CurThread().Proc, st.Globals["g"])
		if !ok {
			t.Fatal("global unmapped")
		}
		sp.Writable(os).PutByte(off, expr.Const(st.ID, expr.W8))
	}
	fork := func() {
		c := s.Fork(2)
		store(c)
		store(s)
		c.Release()
	}
	fork() // warm up: settle the parent's own pages and objects
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fork()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / n
}

// TestForkAllocationBound bounds the bytes a fork allocates, a gate
// that holds on any runner. A printf-shaped fork (489-register top
// frame, 36 bound objects) measured 2512 bytes, against 7248 when
// every fork copied the register slice and the address-space map; the
// bound is 1.5x the measured value. A second check bounds the marginal
// cost of a bound object at 1.5x one 8-byte slot of the flat index,
// which copying a map index (~30 bytes per entry) exceeds.
func TestForkAllocationBound(t *testing.T) {
	const (
		printfBound    = 2512 * 3 / 2
		perObjectBound = 8 * 3 / 2
	)
	printf := forkBytes(t, 489, 36)
	t.Logf("printf-shaped fork: %d bytes", printf)
	if printf > printfBound {
		t.Errorf("a printf-shaped fork allocates %d bytes, bound %d: is a fork copying registers or the object index eagerly again?",
			printf, printfBound)
	}
	more := forkBytes(t, 489, 36+100)
	perObject := float64(int64(more)-int64(printf)) / 100
	t.Logf("marginal cost per bound object: %.1f bytes", perObject)
	if perObject > perObjectBound {
		t.Errorf("each bound object adds %.1f bytes to a fork, bound %d: is the object index copied eagerly again?",
			perObject, perObjectBound)
	}
}
