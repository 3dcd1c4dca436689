package posix

import (
	"fmt"

	"cloud9/internal/expr"
	"cloud9/internal/interp"
	"cloud9/internal/state"
)

// Options configures the POSIX model.
type Options struct {
	// HostFS is a read-only snapshot of host files available to the
	// program (the paper's stateless "external environment" calls, §4.1).
	HostFS map[string][]byte
	// StreamCap overrides the default socket/pipe buffer capacity.
	StreamCap int
}

// Model is an installed POSIX model.
type Model struct {
	opts Options
}

// Install registers the POSIX builtins with the interpreter.
func Install(in *interp.Interp, opts Options) *Model {
	m := &Model{opts: opts}
	m.register(in)
	return m
}

// state accessor honoring options.
func (m *Model) px(s *state.S) *px {
	p := modelOf(s)
	if m.opts.StreamCap > 0 {
		p.DefaultStreamCap = m.opts.StreamCap
	}
	if m.opts.HostFS != nil {
		for path, data := range m.opts.HostFS {
			if _, ok := p.FS[path]; !ok {
				f := &symFile{ReadOnly: true, Data: make([]*expr.Expr, len(data))}
				for i, b := range data {
					f.Data[i] = expr.Const(uint64(b), expr.W8)
				}
				p.FS[path] = f
			}
		}
	}
	return p
}

func cInt(v int64) *expr.Expr   { return expr.Const(uint64(v), expr.W32) }
func cLong(v uint64) *expr.Expr { return expr.Const(v, expr.W64) }

func (m *Model) register(in *interp.Interp) {
	reg := in.Register

	// ---- Sockets ----

	reg("__px_socket", 1, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		typ, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		var of *openFile
		switch typ {
		case sockStream:
			of = &openFile{Kind: kindTCP} // unconnected until connect/accept
		case sockDgram:
			of = &openFile{Kind: kindUDP, DgWlist: c.S.NewWaitList()}
		default:
			return cInt(-1), nil
		}
		ofd := p.newOFD(of)
		pid, _ := c.Context()
		return cInt(int64(p.installFD(c.S, pid, ofd))), nil
	})

	reg("__px_bind", 2, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		fd, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		port, err := c.Concretize(a[1])
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		pid, _ := c.Context()
		of, _, ok := p.lookup(c.S, pid, int(fd))
		if !ok {
			return cInt(-1), nil
		}
		switch of.Kind {
		case kindTCP:
			of.Port = uint16(port)
			return cInt(0), nil
		case kindUDP:
			if _, used := p.UDPPorts[uint16(port)]; used {
				return cInt(-1), nil
			}
			of.BoundPort = uint16(port)
			_, ofd, _ := p.lookup(c.S, pid, int(fd))
			p.UDPPorts[uint16(port)] = ofd
			return cInt(0), nil
		}
		return cInt(-1), nil
	})

	reg("__px_listen", 2, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		fd, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		pid, _ := c.Context()
		of, ofd, ok := p.lookup(c.S, pid, int(fd))
		if !ok || of.Kind != kindTCP || of.Port == 0 {
			return cInt(-1), nil
		}
		if _, used := p.Ports[of.Port]; used {
			return cInt(-1), nil
		}
		of.Kind = kindListener
		of.LsWlist = c.S.NewWaitList()
		p.Ports[of.Port] = ofd
		return cInt(0), nil
	})

	reg("__px_connect", 2, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		fd, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		port, err := c.Concretize(a[1])
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		pid, _ := c.Context()
		of, _, ok := p.lookup(c.S, pid, int(fd))
		if !ok || of.Kind != kindTCP {
			return cInt(-1), nil
		}
		lofdID, ok := p.Ports[uint16(port)]
		if !ok {
			return cInt(-1), nil // connection refused
		}
		listener := p.OFDs[lofdID]
		// Full-duplex connection: two stream buffers (Fig. 6).
		c2s := p.newStream(c.S, p.DefaultStreamCap)
		s2c := p.newStream(c.S, p.DefaultStreamCap)
		of.TxStream = c2s
		of.RxStream = s2c
		listener.Backlog = append(listener.Backlog, pendingConn{RxStream: c2s, TxStream: s2c})
		c.Notify(listener.LsWlist, false)
		c.Notify(p.SelWlist, true)
		return cInt(0), nil
	})

	reg("__px_accept_try", 1, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		fd, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		pid, _ := c.Context()
		of, _, ok := p.lookup(c.S, pid, int(fd))
		if !ok || of.Kind != kindListener {
			return cInt(-1), nil
		}
		if len(of.Backlog) == 0 {
			return cInt(-2), nil // would block
		}
		conn := of.Backlog[0]
		of.Backlog = of.Backlog[1:]
		nof := &openFile{Kind: kindTCP, RxStream: conn.RxStream, TxStream: conn.TxStream}
		ofd := p.newOFD(nof)
		return cInt(int64(p.installFD(c.S, pid, ofd))), nil
	})

	// ---- Pipes ----

	reg("__px_pipe", 1, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		arr, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		pid, _ := c.Context()
		st := p.newStream(c.S, p.DefaultStreamCap)
		rofd := p.newOFD(&openFile{Kind: kindPipe, RxStream: st, TxStream: -1})
		wofd := p.newOFD(&openFile{Kind: kindPipe, RxStream: -1, TxStream: st})
		rfd := p.installFD(c.S, pid, rofd)
		wfd := p.installFD(c.S, pid, wofd)
		if err := c.WriteMem(arr, cInt(int64(rfd))); err != nil {
			return nil, err
		}
		if err := c.WriteMem(arr+4, cInt(int64(wfd))); err != nil {
			return nil, err
		}
		return cInt(0), nil
	})

	// ---- Read / write ----

	reg("__px_read_try", 3, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		return m.readTry(c, a, false)
	})

	reg("__px_recvfrom_try", 4, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		fd, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		buf, err := c.Concretize(a[1])
		if err != nil {
			return nil, err
		}
		n, err := c.Concretize(a[2])
		if err != nil {
			return nil, err
		}
		srcPtr, err := c.Concretize(a[3])
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		pid, _ := c.Context()
		of, _, ok := p.lookup(c.S, pid, int(fd))
		if !ok || of.Kind != kindUDP {
			return cInt(-1), nil
		}
		if of.FaultInj && c.S.FaultInj {
			if c.Decide(2) == 1 {
				c.S.FaultsTaken++
				return cInt(-1), nil
			}
		}
		if len(of.Dgrams) == 0 {
			return cInt(-2), nil
		}
		dg := of.Dgrams[0]
		of.Dgrams = of.Dgrams[1:]
		k := int64(len(dg.Data))
		if k > int64(n) {
			k = int64(n) // truncate, as UDP does
		}
		if err := c.WriteBytes(buf, dg.Data[:k]); err != nil {
			return nil, err
		}
		if srcPtr != 0 {
			if err := c.WriteMem(srcPtr, cInt(int64(dg.SrcPort))); err != nil {
				return nil, err
			}
		}
		return cInt(k), nil
	})

	reg("__px_sendto", 4, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		fd, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		buf, err := c.Concretize(a[1])
		if err != nil {
			return nil, err
		}
		n, err := c.Concretize(a[2])
		if err != nil {
			return nil, err
		}
		port, err := c.Concretize(a[3])
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		pid, _ := c.Context()
		of, _, ok := p.lookup(c.S, pid, int(fd))
		if !ok || of.Kind != kindUDP {
			return cInt(-1), nil
		}
		if of.FaultInj && c.S.FaultInj {
			if c.Decide(2) == 1 {
				c.S.FaultsTaken++
				return cInt(-1), nil
			}
		}
		dstID, ok := p.UDPPorts[uint16(port)]
		if !ok {
			return cInt(-1), nil
		}
		data, err := c.ReadBytes(buf, int64(n))
		if err != nil {
			return nil, err
		}
		dst := p.OFDs[dstID]
		dst.Dgrams = append(dst.Dgrams, datagram{Data: data, SrcPort: of.BoundPort})
		c.Notify(dst.DgWlist, true)
		c.Notify(p.SelWlist, true)
		return cInt(int64(n)), nil
	})

	reg("__px_write_try", 3, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		fd, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		buf, err := c.Concretize(a[1])
		if err != nil {
			return nil, err
		}
		n, err := c.Concretize(a[2])
		if err != nil {
			return nil, err
		}
		// stdout/stderr feed the per-state output buffer.
		if fd == 1 || fd == 2 {
			data, err := c.ReadBytes(buf, int64(n))
			if err != nil {
				return nil, err
			}
			out := interp.Output(c.S)
			for _, e := range data {
				if e.IsConst() {
					out.Bytes = append(out.Bytes, byte(e.ConstVal()))
				} else {
					v, err := c.Concretize(e)
					if err != nil {
						return nil, err
					}
					out.Bytes = append(out.Bytes, byte(v))
				}
			}
			return cInt(int64(n)), nil
		}
		p := m.px(c.S)
		pid, _ := c.Context()
		of, _, ok := p.lookup(c.S, pid, int(fd))
		if !ok {
			return cInt(-1), nil
		}
		if of.FaultInj && c.S.FaultInj {
			if c.Decide(2) == 1 {
				c.S.FaultsTaken++
				return cInt(-1), nil
			}
		}
		switch of.Kind {
		case kindFile:
			f := p.FS[of.Path]
			if f == nil || f.ReadOnly {
				return cInt(-1), nil
			}
			data, err := c.ReadBytes(buf, int64(n))
			if err != nil {
				return nil, err
			}
			for int64(len(f.Data)) < of.Offset+int64(n) {
				f.Data = append(f.Data, expr.Const(0, expr.W8))
			}
			copy(f.Data[of.Offset:], data)
			of.Offset += int64(n)
			return cInt(int64(n)), nil
		case kindPipe, kindTCP:
			st := p.Streams[of.TxStream]
			if st == nil {
				return cInt(-1), nil
			}
			if st.Closed {
				return cInt(-1), nil // EPIPE
			}
			space := st.Cap - len(st.Buf)
			if space <= 0 {
				return cInt(-2), nil // would block
			}
			k := int64(space)
			if k > int64(n) {
				k = int64(n)
			}
			data, err := c.ReadBytes(buf, k)
			if err != nil {
				return nil, err
			}
			st.Buf = append(st.Buf, data...)
			c.Notify(st.RdWlist, true)
			c.Notify(p.SelWlist, true)
			return cInt(k), nil
		}
		return cInt(-1), nil
	})

	// ---- File system ----

	reg("__px_open", 2, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		pathPtr, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		flags, err := c.Concretize(a[1])
		if err != nil {
			return nil, err
		}
		path, err := c.ReadCString(pathPtr)
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		pid, _ := c.Context()
		f := p.FS[path]
		if f == nil {
			if flags&1 == 0 { // not O_CREAT
				return cInt(-1), nil
			}
			f = &symFile{}
			p.FS[path] = f
		}
		ofd := p.newOFD(&openFile{Kind: kindFile, Path: path})
		return cInt(int64(p.installFD(c.S, pid, ofd))), nil
	})

	reg("__px_lseek", 3, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		fd, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		off, err := c.Concretize(a[1])
		if err != nil {
			return nil, err
		}
		whence, err := c.Concretize(a[2])
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		pid, _ := c.Context()
		of, _, ok := p.lookup(c.S, pid, int(fd))
		if !ok || of.Kind != kindFile {
			return cInt(-1), nil
		}
		f := p.FS[of.Path]
		switch whence {
		case 0:
			of.Offset = int64(off)
		case 1:
			of.Offset += int64(off)
		case 2:
			of.Offset = int64(len(f.Data)) + int64(off)
		}
		return cInt(of.Offset), nil
	})

	// ---- Descriptor management ----

	reg("__px_close", 1, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		fd, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		pid, _ := c.Context()
		if !p.closeFD(c.S, pid, int(fd)) {
			return cInt(-1), nil
		}
		return cInt(0), nil
	})

	reg("__px_dup", 1, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		fd, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		pid, _ := c.Context()
		_, ofd, ok := p.lookup(c.S, pid, int(fd))
		if !ok {
			return cInt(-1), nil
		}
		return cInt(int64(p.installFD(c.S, pid, ofd))), nil
	})

	// ---- Wait lists for blocking wrappers ----

	reg("__px_rd_wlist", 1, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		fd, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		pid, _ := c.Context()
		of, _, ok := p.lookup(c.S, pid, int(fd))
		if !ok {
			return cLong(0), nil
		}
		switch of.Kind {
		case kindPipe, kindTCP:
			if st := p.Streams[of.RxStream]; st != nil {
				return cLong(st.RdWlist), nil
			}
		case kindListener:
			return cLong(of.LsWlist), nil
		case kindUDP:
			return cLong(of.DgWlist), nil
		}
		return cLong(0), nil
	})

	reg("__px_wr_wlist", 1, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		fd, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		pid, _ := c.Context()
		of, _, ok := p.lookup(c.S, pid, int(fd))
		if !ok {
			return cLong(0), nil
		}
		if of.Kind == kindPipe || of.Kind == kindTCP {
			if st := p.Streams[of.TxStream]; st != nil {
				return cLong(st.WrWlist), nil
			}
		}
		return cLong(0), nil
	})

	// ---- ioctl (Table 3) ----

	reg("__px_ioctl", 3, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		fd, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		code, err := c.Concretize(a[1])
		if err != nil {
			return nil, err
		}
		arg, err := c.Concretize(a[2])
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		pid, _ := c.Context()
		of, _, ok := p.lookup(c.S, pid, int(fd))
		if !ok {
			return cInt(-1), nil
		}
		on := arg != 0
		switch code {
		case SioSymbolic:
			of.Symbolic = on
		case SioPktFragment:
			of.Fragment = on
		case SioFaultInj:
			of.FaultInj = on
		default:
			return cInt(-1), nil
		}
		return cInt(0), nil
	})

	// ---- select ----

	reg("__px_sel_wlist", 0, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		return cLong(m.px(c.S).SelWlist), nil
	})

	reg("__px_select_try", 4, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		rPtr, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		nr, err := c.Concretize(a[1])
		if err != nil {
			return nil, err
		}
		wPtr, err := c.Concretize(a[2])
		if err != nil {
			return nil, err
		}
		nw, err := c.Concretize(a[3])
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		pid, _ := c.Context()

		readFds := func(ptr uint64, n uint64) ([]int32, error) {
			out := make([]int32, n)
			for i := uint64(0); i < n; i++ {
				e, err := c.ReadMem(ptr+4*i, expr.W32)
				if err != nil {
					return nil, err
				}
				v, err := c.Concretize(e)
				if err != nil {
					return nil, err
				}
				out[i] = int32(v)
			}
			return out, nil
		}
		rfds, err := readFds(rPtr, nr)
		if err != nil {
			return nil, err
		}
		wfds, err := readFds(wPtr, nw)
		if err != nil {
			return nil, err
		}
		count := 0
		rReady := make([]bool, len(rfds))
		wReady := make([]bool, len(wfds))
		for i, fd := range rfds {
			if fd >= 0 && m.readable(c.S, p, pid, int(fd)) {
				rReady[i] = true
				count++
			}
		}
		for i, fd := range wfds {
			if fd >= 0 && m.writable(c.S, p, pid, int(fd)) {
				wReady[i] = true
				count++
			}
		}
		if count == 0 {
			return cInt(0), nil
		}
		// Rewrite the arrays: not-ready entries become -1.
		for i, fd := range rfds {
			v := int64(fd)
			if !rReady[i] {
				v = -1
			}
			if err := c.WriteMem(rPtr+4*uint64(i), cInt(v)); err != nil {
				return nil, err
			}
		}
		for i, fd := range wfds {
			v := int64(fd)
			if !wReady[i] {
				v = -1
			}
			if err := c.WriteMem(wPtr+4*uint64(i), cInt(v)); err != nil {
				return nil, err
			}
		}
		return cInt(int64(count)), nil
	})

	// ---- fork with fd inheritance ----

	reg("__px_fork", 0, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		p := m.px(c.S)
		parent, _ := c.Context()
		pid, ctid := c.ProcessFork()
		p.forkInheritFDs(parent, state.ProcessID(pid))
		child := c.S.Threads[ctid]
		childFrame := child.Top()
		f := childFrame.Fn.Blocks[childFrame.Block].Instrs[childFrame.PC-1]
		if f.A >= 0 {
			childFrame.SetReg(f.A, cInt(0))
		}
		return cInt(int64(pid)), nil
	})

	// ---- test helpers ----

	// c9_write_file(path, data, n): seed a guest file with bytes.
	reg("c9_write_file", 3, func(c *interp.Ctx, a []*expr.Expr) (*expr.Expr, error) {
		pathPtr, err := c.Concretize(a[0])
		if err != nil {
			return nil, err
		}
		dataPtr, err := c.Concretize(a[1])
		if err != nil {
			return nil, err
		}
		n, err := c.Concretize(a[2])
		if err != nil {
			return nil, err
		}
		path, err := c.ReadCString(pathPtr)
		if err != nil {
			return nil, err
		}
		data, err := c.ReadBytes(dataPtr, int64(n))
		if err != nil {
			return nil, err
		}
		p := m.px(c.S)
		p.FS[path] = &symFile{Data: data}
		return cInt(0), nil
	})
}

// readTry implements __px_read_try, including symbolic sources,
// fragmentation and fault injection.
func (m *Model) readTry(c *interp.Ctx, a []*expr.Expr, _ bool) (*expr.Expr, error) {
	fd, err := c.Concretize(a[0])
	if err != nil {
		return nil, err
	}
	buf, err := c.Concretize(a[1])
	if err != nil {
		return nil, err
	}
	n, err := c.Concretize(a[2])
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return cInt(0), nil
	}
	if fd == 0 {
		return cInt(0), nil // stdin is at EOF unless remodeled
	}
	p := m.px(c.S)
	pid, _ := c.Context()
	of, _, ok := p.lookup(c.S, pid, int(fd))
	if !ok {
		return cInt(-1), nil
	}
	if of.FaultInj && c.S.FaultInj {
		if c.Decide(2) == 1 {
			c.S.FaultsTaken++
			return cInt(-1), nil
		}
	}
	switch of.Kind {
	case kindFile:
		f := p.FS[of.Path]
		if f == nil {
			return cInt(-1), nil
		}
		avail := int64(len(f.Data)) - of.Offset
		if avail <= 0 {
			return cInt(0), nil // EOF
		}
		k := int64(n)
		if k > avail {
			k = avail
		}
		var data []*expr.Expr
		if of.Symbolic {
			data = c.NewSymbolicBytes(fmt.Sprintf("file:%s", of.Path), k)
		} else {
			data = f.Data[of.Offset : of.Offset+k]
		}
		if err := c.WriteBytes(buf, data); err != nil {
			return nil, err
		}
		of.Offset += k
		return cInt(k), nil
	case kindPipe, kindTCP:
		st := p.Streams[of.RxStream]
		if st == nil {
			return cInt(-1), nil
		}
		if of.Symbolic {
			// The descriptor is a symbolic source: return symbolic bytes,
			// honoring fragmentation.
			k := int64(n)
			if of.Fragment && k > 1 {
				k = int64(c.Decide(int(k))) + 1
			}
			data := c.NewSymbolicBytes(fmt.Sprintf("sock:%d", fd), k)
			if err := c.WriteBytes(buf, data); err != nil {
				return nil, err
			}
			return cInt(k), nil
		}
		avail := int64(len(st.Buf))
		if avail == 0 {
			if st.Closed {
				return cInt(0), nil // EOF
			}
			return cInt(-2), nil // would block
		}
		want := int64(n)
		if want > avail {
			want = avail
		}
		k := want
		if of.Fragment && want > 1 {
			// SIO_PKT_FRAGMENT: explore every split point (§5.1). Each
			// fork reads a different prefix length in [1, want].
			k = int64(c.Decide(int(want))) + 1
		}
		if err := c.WriteBytes(buf, st.Buf[:k]); err != nil {
			return nil, err
		}
		st.Buf = append(st.Buf[:0:0], st.Buf[k:]...)
		c.Notify(st.WrWlist, true)
		c.Notify(p.SelWlist, true)
		return cInt(k), nil
	}
	return cInt(-1), nil
}

func (m *Model) readable(s *state.S, p *px, pid state.ProcessID, fd int) bool {
	of, _, ok := p.lookup(s, pid, fd)
	if !ok {
		return false
	}
	switch of.Kind {
	case kindFile:
		return true
	case kindPipe, kindTCP:
		if of.Symbolic {
			return true
		}
		st := p.Streams[of.RxStream]
		return st != nil && (len(st.Buf) > 0 || st.Closed)
	case kindListener:
		return len(of.Backlog) > 0
	case kindUDP:
		return len(of.Dgrams) > 0
	}
	return false
}

func (m *Model) writable(s *state.S, p *px, pid state.ProcessID, fd int) bool {
	of, _, ok := p.lookup(s, pid, fd)
	if !ok {
		return false
	}
	switch of.Kind {
	case kindFile, kindUDP:
		return true
	case kindPipe, kindTCP:
		st := p.Streams[of.TxStream]
		return st != nil && (st.Cap-len(st.Buf) > 0 || st.Closed)
	}
	return false
}
