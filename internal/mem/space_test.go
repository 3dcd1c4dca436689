package mem

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cloud9/internal/expr"
)

// spaceModel is the reference for one AddressSpace: a plain map from
// base address to the object state bound there.
type spaceModel map[uint64]*ObjectState

// checkSpaces compares every live space against its model: the bound
// set, address order, and every object state's reference count, which
// must equal the number of live spaces holding it.
func checkSpaces(t *testing.T, step int, spaces []*AddressSpace, models []spaceModel) {
	t.Helper()
	holders := map[*ObjectState]int{}
	for i, as := range spaces {
		m := models[i]
		if as.NumObjects() != len(m) {
			t.Fatalf("step %d space %d: %d objects, model has %d", step, i, as.NumObjects(), len(m))
		}
		var bases []uint64
		as.Objects(func(os *ObjectState) { bases = append(bases, os.Obj.Base) })
		if !sort.SliceIsSorted(bases, func(a, b int) bool { return bases[a] < bases[b] }) {
			t.Fatalf("step %d space %d: objects out of address order: %#x", step, i, bases)
		}
		for base, want := range m {
			holders[want]++
			got, off, ok := as.Resolve(base)
			if !ok || got != want || off != 0 {
				t.Fatalf("step %d space %d: first byte of %#x resolved to %p+%d (%v), want %p",
					step, i, base, got, off, ok, want)
			}
			last := want.Obj.End() - 1
			if got, off, ok := as.Resolve(last); !ok || got != want || off != want.Obj.Size-1 {
				t.Fatalf("step %d space %d: last byte of %#x resolved to %p+%d (%v)", step, i, base, got, off, ok)
			}
			for _, gap := range []uint64{want.Obj.End(), want.Obj.End() + allocGuard - 1} {
				if got, _, ok := as.Resolve(gap); ok {
					t.Fatalf("step %d space %d: guard gap %#x after %#x resolved to %#x",
						step, i, gap, base, got.Obj.Base)
				}
			}
		}
	}
	for os, n := range holders {
		if os.Refs() != n {
			t.Fatalf("step %d: object %#x has refs %d, held by %d spaces", step, os.Obj.Base, os.Refs(), n)
		}
	}
}

// TestAddressSpaceMatchesMapModel drives random Bind (in and out of
// address order, as MakeShared binds an older object into a space that
// already holds newer ones), Unbind, Clone, Writable and Release against
// a map per space, checking bindings, resolution at every object's
// first byte, last byte and guard gap, and reference counts after every
// step.
func TestAddressSpaceMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			alloc := NewAllocator(0x1000)
			var pending []*Object // allocated, not yet bound anywhere
			spaces := []*AddressSpace{NewAddressSpace()}
			models := []spaceModel{{}}
			for step := 0; step < 400; step++ {
				i := rng.Intn(len(spaces))
				as, m := spaces[i], models[i]
				switch op := rng.Intn(10); {
				case op < 3: // bind a fresh allocation: the append path
					os := NewObjectState(alloc.Allocate(int64(1+rng.Intn(40)), "fresh"))
					as.Bind(os)
					m[os.Obj.Base] = os
				case op < 4: // allocate now, bind later out of order
					pending = append(pending, alloc.Allocate(int64(1+rng.Intn(40)), "late"))
				case op < 5 && len(pending) > 0: // sorted insert
					k := rng.Intn(len(pending))
					os := NewObjectState(pending[k])
					pending = append(pending[:k], pending[k+1:]...)
					as.Bind(os)
					m[os.Obj.Base] = os
				case op < 6 && len(m) > 0: // unbind a random object
					base := randomBase(rng, m)
					if got := as.Unbind(base); got != m[base] {
						t.Fatalf("step %d: Unbind(%#x) = %p, want %p", step, base, got, m[base])
					}
					m[base].Unref()
					delete(m, base)
					if as.Unbind(base) != nil {
						t.Fatalf("step %d: second Unbind(%#x) found an object", step, base)
					}
				case op < 7: // fork the space
					spaces = append(spaces, as.Clone())
					dup := spaceModel{}
					for b, os := range m {
						dup[b] = os
					}
					models = append(models, dup)
				case op < 9 && len(m) > 0: // write through CoW
					base := randomBase(rng, m)
					os := m[base]
					shared := os.Refs() > 1
					w := as.Writable(os)
					if (w != os) != shared {
						t.Fatalf("step %d: Writable copied=%v with refs %d", step, w != os, os.Refs())
					}
					w.PutByte(0, expr.Const(uint64(step), expr.W8))
					m[base] = w
				case op == 9 && len(spaces) > 1: // a state dies
					as.Release()
					spaces = append(spaces[:i], spaces[i+1:]...)
					models = append(models[:i], models[i+1:]...)
				}
				checkSpaces(t, step, spaces, models)
			}
		})
	}
}

func randomBase(rng *rand.Rand, m spaceModel) uint64 {
	bases := make([]uint64, 0, len(m))
	for b := range m {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases[rng.Intn(len(bases))]
}

func TestBindDuplicateBasePanics(t *testing.T) {
	alloc := NewAllocator(0x1000)
	as := NewAddressSpace()
	a := alloc.Allocate(8, "a")
	as.Bind(NewObjectState(a))
	as.Bind(NewObjectState(alloc.Allocate(8, "b")))
	defer func() {
		if recover() == nil {
			t.Fatal("binding a second state at a bound base must panic")
		}
	}()
	as.Bind(NewObjectState(a))
}

// TestReadMatchesByteTree: for random mixes of concrete and symbolic
// bytes, Read at every width and offset returns the very pointer the
// byte-wise construction (a W1 byte test, or the balanced concat tree)
// builds, so the concrete fast path is invisible to everything above.
func TestReadMatchesByteTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	widths := []expr.Width{expr.W1, expr.W8, expr.W16, expr.W32, expr.W64}
	for trial := 0; trial < 200; trial++ {
		// Trials cycle through no symbolic byte ever written, symbolic
		// bytes all overwritten by constants, and a random mix.
		mode := trial % 3
		_, os := newObj(t, 24)
		for off := int64(0); off < 24; off++ {
			switch k := rng.Intn(4); {
			case mode == 2 && k == 0:
				os.PutByte(off, expr.Var(uint64(rng.Intn(8)), "s"))
			case mode > 0 && k == 1:
				os.PutByte(off, expr.Var(9, "s"))
				os.PutByte(off, expr.Const(uint64(rng.Intn(256)), expr.W8))
			default:
				os.PutByte(off, expr.Const(uint64(rng.Intn(256)), expr.W8))
			}
		}
		for _, w := range widths {
			n := w.Bytes()
			for off := int64(0); off+int64(n) <= 24; off++ {
				want := os.readTree(off, n)
				if w == expr.W1 {
					want = expr.Ne(os.Byte(off), expr.Const(0, expr.W8))
				}
				if got := os.Read(off, w); got != want {
					t.Fatalf("trial %d: Read(%d, w%d) = %v, byte-wise tree = %v", trial, off, w, got, want)
				}
			}
		}
	}
}
