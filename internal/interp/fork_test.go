package interp

import (
	"testing"

	"cloud9/internal/cc"
	"cloud9/internal/expr"
	"cloud9/internal/mem"
	"cloud9/internal/state"
)

// forkFixture compiles a program whose main frame owns a stack array,
// so the initial state has registers and bound memory objects.
func forkFixture(t *testing.T) (*Interp, *state.S) {
	t.Helper()
	prog, err := cc.Compile("fork.c", `
int main() {
	char b[4];
	b[0] = 7;
	return b[0];
}`, cc.Options{Externs: testExterns()})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	in := New(prog)
	s, err := in.InitialState("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.CurThread().Top().SlotObjs) == 0 {
		t.Fatal("fixture has no stack objects")
	}
	return in, s
}

// stackArray returns s's address space and the object state backing
// main's stack array in it.
func stackArray(s *state.S) (*mem.AddressSpace, *mem.ObjectState) {
	space := s.CurProc().Space
	os, _, ok := space.Resolve(s.CurThread().Top().SlotObjs[0].Base)
	if !ok {
		panic("stack array unmapped")
	}
	return space, os
}

func objectRefs(s *state.S) map[*mem.ObjectState]int {
	refs := map[*mem.ObjectState]int{}
	for _, p := range s.Procs {
		p.Space.Objects(func(os *mem.ObjectState) { refs[os] = os.Refs() })
	}
	s.Shared.Objects(func(os *mem.ObjectState) { refs[os] = os.Refs() })
	return refs
}

// TestForkNReusesParentAsLastChild: the last child of a fork is the
// parent itself, yet it shares no mutable register or memory state with
// the cloned siblings; IDs follow child order; and the CoW reference
// counts net out exactly as clone-n-then-release would.
func TestForkNReusesParentAsLastChild(t *testing.T) {
	for _, writer := range []int{1, 0} {
		in, s := forkFixture(t)
		// A snapshot keeps the parent's objects alive past both children,
		// so their counts stay observable after the release.
		snap := s.Fork(in.NewStateID())
		before := objectRefs(s)
		parentID := s.ID
		kids := in.forkN(s, 2, func(c *state.S, i int) {})
		if kids[1] != s {
			t.Fatal("last child must reuse the parent state")
		}
		if !(parentID < kids[0].ID && kids[0].ID < kids[1].ID) {
			t.Fatalf("ids %d, %d after parent %d: want increasing in child order",
				kids[0].ID, kids[1].ID, parentID)
		}
		for os, n := range before {
			// Two children hold one reference each where the parent held
			// one: net +1, as two clones and a parent release would leave.
			if os.Refs() != n+1 {
				t.Fatalf("refs after fork = %d, want %d", os.Refs(), n+1)
			}
		}

		w, r := kids[writer], kids[1-writer]
		wf := w.CurThread().Top()
		wf.SetReg(0, expr.Const(99, expr.W32))
		if got := r.CurThread().Top().Reg(0); got == wf.Reg(0) {
			t.Fatalf("writer %d: register write leaked into child %d", writer, 1-writer)
		}
		space, os := stackArray(w)
		space.Writable(os).PutByte(0, expr.Const(42, expr.W8))
		if _, wos := stackArray(w); wos.Byte(0).ConstVal() != 42 {
			t.Fatalf("writer %d: write did not land", writer)
		}
		if _, ros := stackArray(r); ros.Byte(0).ConstVal() != 0 {
			t.Fatalf("writer %d: memory write leaked into child %d", writer, 1-writer)
		}

		kids[0].Release()
		kids[1].Release()
		for os, n := range before {
			// The parent's own reference traveled with the last child, so
			// once both children are gone only the snapshot holds each
			// object: one below the pre-fork count.
			if os.Refs() != n-1 {
				t.Fatalf("writer %d: refs after releasing both children = %d, want %d", writer, os.Refs(), n-1)
			}
		}
		snap.Release()
	}
}
