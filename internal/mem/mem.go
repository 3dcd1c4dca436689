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
// address and size. The mutable contents live in ObjectState.
type Object struct {
	ID     uint64
	Base   uint64
	Size   int64
	Name   string // diagnostics: "global foo", "frame main", "heap"
	Shared bool   // lives in the state-wide CoW domain (cloud9_make_shared)
}

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
func (os *ObjectState) Read(off int64, w expr.Width) *expr.Expr {
	if w == expr.W1 {
		return expr.Ne(os.Byte(off), expr.Const(0, expr.W8))
	}
	return os.readTree(off, w.Bytes())
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
	obj := &Object{ID: a.nextID, Base: base, Size: size, Name: name}
	a.nextID++
	span := uint64(size) + allocGuard
	span += allocAlign - 1
	span -= span % allocAlign
	a.next += span
	return obj
}

// AddressSpace maps addresses to object states. Cloning shares object
// states copy-on-write; the index itself is copied eagerly (it is small
// relative to contents).
type AddressSpace struct {
	objects map[uint64]*ObjectState // keyed by base
	bases   []uint64                // sorted
}

// NewAddressSpace returns an empty space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{objects: make(map[uint64]*ObjectState)}
}

// Clone returns a CoW copy of the space.
func (as *AddressSpace) Clone() *AddressSpace {
	dup := &AddressSpace{
		objects: make(map[uint64]*ObjectState, len(as.objects)),
		bases:   append([]uint64(nil), as.bases...),
	}
	for b, os := range as.objects {
		dup.objects[b] = os.Ref()
	}
	return dup
}

// Release drops the space's references (called when a state dies).
func (as *AddressSpace) Release() {
	for _, os := range as.objects {
		os.Unref()
	}
}

// Bind inserts a fresh object state into the space.
func (as *AddressSpace) Bind(os *ObjectState) {
	base := os.Obj.Base
	if _, dup := as.objects[base]; dup {
		panic(fmt.Sprintf("mem: duplicate binding at %#x", base))
	}
	as.objects[base] = os
	as.insertBase(base)
}

func (as *AddressSpace) insertBase(base uint64) {
	lo, hi := 0, len(as.bases)
	for lo < hi {
		mid := (lo + hi) / 2
		if as.bases[mid] < base {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	as.bases = append(as.bases, 0)
	copy(as.bases[lo+1:], as.bases[lo:])
	as.bases[lo] = base
}

// Unbind removes the object containing base and returns its state.
func (as *AddressSpace) Unbind(base uint64) *ObjectState {
	os, ok := as.objects[base]
	if !ok {
		return nil
	}
	delete(as.objects, base)
	for i, b := range as.bases {
		if b == base {
			as.bases = append(as.bases[:i], as.bases[i+1:]...)
			break
		}
	}
	return os
}

// Resolve finds the object containing addr. ok=false means unmapped
// (a memory error in the program under test).
func (as *AddressSpace) Resolve(addr uint64) (*ObjectState, int64, bool) {
	// Find the greatest base <= addr.
	lo, hi := 0, len(as.bases)
	for lo < hi {
		mid := (lo + hi) / 2
		if as.bases[mid] <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil, 0, false
	}
	os := as.objects[as.bases[lo-1]]
	if !os.Obj.Contains(addr) {
		return nil, 0, false
	}
	return os, int64(addr - os.Obj.Base), true
}

// Writable returns a privately owned object state for the object
// containing addr, replacing the space's reference if CoW demanded a
// copy.
func (as *AddressSpace) Writable(os *ObjectState) *ObjectState {
	w := os.copyForWrite()
	if w != os {
		as.objects[os.Obj.Base] = w
	}
	return w
}

// NumObjects returns the number of bound objects.
func (as *AddressSpace) NumObjects() int { return len(as.objects) }

// Objects calls fn for each bound object state.
func (as *AddressSpace) Objects(fn func(*ObjectState)) {
	for _, b := range as.bases {
		fn(as.objects[b])
	}
}
