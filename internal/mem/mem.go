// Package mem implements the symbolic memory model: memory objects with
// byte-granular concrete/symbolic contents, copy-on-write object states
// shared between forked execution states, address spaces, and the
// deterministic per-state allocator that Cloud9 introduced to keep path
// replay byte-identical across workers (§6 "Broken Replays").
package mem

import (
	"fmt"

	"cloud9/internal/expr"
)

// Object is the immutable identity of an allocation: its virtual base
// address and size. The mutable contents live in ObjectState. Forked
// states share one Object, so nothing may write it after Allocate.
type Object struct {
	ID       uint64
	Base     uint64
	Size     int64
	Name     string     // diagnostics: "global foo", "frame main", "heap"
	baseExpr *expr.Expr // Base as an interned 64-bit constant
}

// BaseExpr returns the object's base address as an interned 64-bit
// constant, built once at allocation instead of on every address use.
func (o *Object) BaseExpr() *expr.Expr { return o.baseExpr }

// End returns one past the last valid address of the object.
func (o *Object) End() uint64 { return o.Base + uint64(o.Size) }

// Contains reports whether addr falls inside the object.
func (o *Object) Contains(addr uint64) bool {
	return addr >= o.Base && addr < o.End()
}

// ObjectState is the contents of one object, copy-on-write shared
// between execution states. A nil entry in symbolic means the byte is
// concrete (in concrete[i]); otherwise the expression is authoritative.
type ObjectState struct {
	Obj      *Object
	refs     int
	concrete []byte
	symbolic []*expr.Expr // lazily allocated
}

// NewObjectState allocates fresh zeroed contents for obj.
func NewObjectState(obj *Object) *ObjectState {
	return &ObjectState{Obj: obj, refs: 1, concrete: make([]byte, obj.Size)}
}

// InitConcrete copies data into the object starting at offset 0.
func (os *ObjectState) InitConcrete(data []byte) {
	copy(os.concrete, data)
}

// Ref increments the CoW reference count.
func (os *ObjectState) Ref() *ObjectState {
	os.refs++
	return os
}

// Unref decrements the CoW reference count.
func (os *ObjectState) Unref() { os.refs-- }

// Refs returns the CoW reference count: the number of address spaces
// sharing these contents.
func (os *ObjectState) Refs() int { return os.refs }

// copyForWrite returns a privately owned copy when shared.
func (os *ObjectState) copyForWrite() *ObjectState {
	if os.refs == 1 {
		return os
	}
	os.refs--
	dup := &ObjectState{Obj: os.Obj, refs: 1, concrete: make([]byte, len(os.concrete))}
	copy(dup.concrete, os.concrete)
	if os.symbolic != nil {
		dup.symbolic = make([]*expr.Expr, len(os.symbolic))
		copy(dup.symbolic, os.symbolic)
	}
	return dup
}

// Byte returns the byte at off as an expression.
func (os *ObjectState) Byte(off int64) *expr.Expr {
	if os.symbolic != nil && os.symbolic[off] != nil {
		return os.symbolic[off]
	}
	return expr.Const(uint64(os.concrete[off]), expr.W8)
}

// PutByte stores an 8-bit expression at off. The caller must own the
// object state (obtained via AddressSpace.Writable).
func (os *ObjectState) PutByte(off int64, e *expr.Expr) {
	if e.Width() != expr.W8 {
		panic("mem: PutByte with non-byte expression")
	}
	if e.IsConst() {
		os.concrete[off] = byte(e.ConstVal())
		if os.symbolic != nil {
			os.symbolic[off] = nil
		}
		return
	}
	if os.symbolic == nil {
		os.symbolic = make([]*expr.Expr, len(os.concrete))
	}
	os.symbolic[off] = e
}

// Read assembles a little-endian value of width w starting at off.
// Bytes combine as a balanced concat tree (widths stay powers of two).
// A range with no symbolic byte is assembled directly into the one
// constant that tree folds to.
func (os *ObjectState) Read(off int64, w expr.Width) *expr.Expr {
	n := w.Bytes()
	if os.concreteRange(off, n) {
		var v uint64
		for i := n - 1; i >= 0; i-- {
			v = v<<8 | uint64(os.concrete[off+int64(i)])
		}
		if w == expr.W1 {
			return expr.Bool(v != 0)
		}
		return expr.Const(v, w)
	}
	if w == expr.W1 {
		return expr.Ne(os.Byte(off), expr.Const(0, expr.W8))
	}
	return os.readTree(off, n)
}

// concreteRange reports whether no byte in [off, off+n) is symbolic.
func (os *ObjectState) concreteRange(off int64, n int) bool {
	if os.symbolic == nil {
		return true
	}
	for _, e := range os.symbolic[off : off+int64(n)] {
		if e != nil {
			return false
		}
	}
	return true
}

func (os *ObjectState) readTree(off int64, n int) *expr.Expr {
	if n == 1 {
		return os.Byte(off)
	}
	half := n / 2
	lo := os.readTree(off, half)
	hi := os.readTree(off+int64(half), half)
	return expr.Concat(hi, lo)
}

// Write stores e at off little-endian, splitting into byte expressions.
func (os *ObjectState) Write(off int64, e *expr.Expr) {
	w := e.Width()
	if w == expr.W1 {
		e = expr.ZExt(e, expr.W8)
		w = expr.W8
	}
	n := w.Bytes()
	for i := 0; i < n; i++ {
		os.PutByte(off+int64(i), expr.Extract(e, uint(8*i), expr.W8))
	}
}

// IsFullyConcrete reports whether no byte of the object is symbolic.
func (os *ObjectState) IsFullyConcrete() bool {
	for _, s := range os.symbolic {
		if s != nil {
			return false
		}
	}
	return true
}

// ConcreteBytes returns the concrete contents under a, using the
// assignment to concretize symbolic bytes (missing vars read as 0).
func (os *ObjectState) ConcreteBytes(a expr.Assignment) []byte {
	out := make([]byte, len(os.concrete))
	copy(out, os.concrete)
	for i, s := range os.symbolic {
		if s != nil {
			v, _ := s.Eval(a)
			out[i] = byte(v)
		}
	}
	return out
}

// Allocator issues deterministic virtual addresses. Each execution state
// owns one; forked states copy it, so identical paths allocate identical
// addresses regardless of which worker replays them.
type Allocator struct {
	next   uint64
	nextID uint64
}

// Alignment and inter-object guard gap. The gap guarantees that
// off-by-one accesses land in unmapped space and are caught.
const (
	allocAlign = 16
	allocGuard = 32
)

// NewAllocator returns an allocator starting at base.
func NewAllocator(base uint64) *Allocator {
	return &Allocator{next: base, nextID: 1}
}

// Clone returns an independent copy (same future address sequence).
func (a *Allocator) Clone() *Allocator {
	dup := *a
	return &dup
}

// Allocate reserves an address range and returns the new object.
func (a *Allocator) Allocate(size int64, name string) *Object {
	if size <= 0 {
		size = 1 // zero-sized allocations still get a distinct address
	}
	base := a.next
	obj := &Object{ID: a.nextID, Base: base, Size: size, Name: name,
		baseExpr: expr.Const(base, expr.W64)}
	a.nextID++
	span := uint64(size) + allocGuard
	span += allocAlign - 1
	span -= span % allocAlign
	a.next += span
	return obj
}

// AddressSpace maps addresses to object states: one slice of object
// states sorted by base address. Cloning copies the slice and shares
// every object state copy-on-write, so a fork costs one slice copy;
// lookups binary-search it. The allocator hands out increasing
// addresses, so Bind nearly always appends.
type AddressSpace struct {
	objs []*ObjectState // sorted by Obj.Base
}

// NewAddressSpace returns an empty space.
func NewAddressSpace() *AddressSpace { return &AddressSpace{} }

// Clone returns a CoW copy of the space.
func (as *AddressSpace) Clone() *AddressSpace {
	dup := &AddressSpace{objs: append([]*ObjectState(nil), as.objs...)}
	for _, os := range dup.objs {
		os.Ref()
	}
	return dup
}

// Release drops the space's references (called when a state dies).
func (as *AddressSpace) Release() {
	for _, os := range as.objs {
		os.Unref()
	}
}

// search returns the number of bound objects whose base is <= addr.
func (as *AddressSpace) search(addr uint64) int {
	lo, hi := 0, len(as.objs)
	for lo < hi {
		mid := (lo + hi) / 2
		if as.objs[mid].Obj.Base <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// index returns the slot of the object based at base, or -1.
func (as *AddressSpace) index(base uint64) int {
	i := as.search(base) - 1
	if i < 0 || as.objs[i].Obj.Base != base {
		return -1
	}
	return i
}

// Bind inserts a fresh object state into the space.
func (as *AddressSpace) Bind(os *ObjectState) {
	base := os.Obj.Base
	if n := len(as.objs); n == 0 || as.objs[n-1].Obj.Base < base {
		as.objs = append(as.objs, os)
		return
	}
	i := as.search(base)
	if i > 0 && as.objs[i-1].Obj.Base == base {
		panic(fmt.Sprintf("mem: duplicate binding at %#x", base))
	}
	as.objs = append(as.objs, nil)
	copy(as.objs[i+1:], as.objs[i:])
	as.objs[i] = os
}

// Unbind removes the object based at base and returns its state.
func (as *AddressSpace) Unbind(base uint64) *ObjectState {
	i := as.index(base)
	if i < 0 {
		return nil
	}
	os := as.objs[i]
	copy(as.objs[i:], as.objs[i+1:])
	as.objs[len(as.objs)-1] = nil
	as.objs = as.objs[:len(as.objs)-1]
	return os
}

// Resolve finds the object containing addr. ok=false means unmapped
// (a memory error in the program under test).
func (as *AddressSpace) Resolve(addr uint64) (*ObjectState, int64, bool) {
	i := as.search(addr) - 1
	if i < 0 {
		return nil, 0, false
	}
	os := as.objs[i]
	if !os.Obj.Contains(addr) {
		return nil, 0, false
	}
	return os, int64(addr - os.Obj.Base), true
}

// Writable returns a privately owned object state for os, which must be
// bound in the space, replacing the space's reference if CoW demanded a
// copy.
func (as *AddressSpace) Writable(os *ObjectState) *ObjectState {
	w := os.copyForWrite()
	if w != os {
		as.objs[as.index(os.Obj.Base)] = w
	}
	return w
}

// NumObjects returns the number of bound objects.
func (as *AddressSpace) NumObjects() int { return len(as.objs) }

// Objects calls fn for each bound object state in address order.
func (as *AddressSpace) Objects(fn func(*ObjectState)) {
	for _, os := range as.objs {
		fn(os)
	}
}
