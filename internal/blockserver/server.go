package blockserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/obs"
	"shiftedmirror/internal/raid"
)

// Store is the minimal served surface: raw positioned I/O over one byte
// space. dev.Device implements it, and so does any single-disk backing
// store — internal/cluster serves one bare disk per backend this way.
type Store interface {
	io.ReaderAt
	io.WriterAt
	Size() int64
}

// DirectStore is a Store that can hand out its backing memory, letting
// the server skip the intermediate copy on the wire path: OpReadV
// gathers writev directly from store memory, and OpWriteV scatters land
// by reading the socket straight into the store region. dev.MemStore
// implements it; file- or rate-limited stores do not and are served
// through the pooled-buffer path.
type DirectStore interface {
	Store
	// Slice returns the store's memory for [off, off+n), or false when
	// that span cannot be addressed directly (out of bounds, not
	// memory-resident, ...). A returned slice must stay valid for the
	// lifetime of the store and alias the bytes ReadAt/WriteAt see.
	Slice(off, n int64) ([]byte, bool)
}

// manager is the optional management surface behind OpFail/OpRebuild/
// OpScrub/OpHealth. Full devices implement it; bare stores do not, and
// their servers answer those opcodes with a remote error.
type manager interface {
	FailDisk(raid.DiskID) error
	Rebuild(raid.DiskID) error
	Scrub() error
	Health() dev.Health
	FailedDisks() []raid.DiskID
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithMetrics attaches a Metrics collector: the server records
// per-opcode counts, latencies, payload bytes, and connection
// lifecycle into it. One collector may be shared across servers.
func WithMetrics(m *Metrics) ServerOption {
	return func(s *Server) { s.metrics = m }
}

// WithTracer attaches a per-operation trace hook; the server emits one
// obs.Event per request served. The tracer runs inline on the data
// path, so it must be fast and concurrency-safe.
func WithTracer(t obs.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// WithReadRate caps the server's aggregate read bandwidth at
// bytesPerSec, serializing transfers the way a single spindle does. It
// models the bounded read bandwidth of one disk when many in-memory
// backends share a machine (examples/clusterrecon); 0 means unlimited.
func WithReadRate(bytesPerSec float64) ServerOption {
	return func(s *Server) {
		if bytesPerSec > 0 {
			s.readRate = &rateLimiter{perByte: time.Duration(float64(time.Second) / bytesPerSec)}
		}
	}
}

// WithCRC enables the end-to-end integrity feature: the server grants
// FeatureCRC to negotiating clients, verifies the CRC-32C carried on
// every OpWriteVC range, and keeps a per-block CRC sidecar (4 bytes +
// 1 bit per block of store) so OpReadVC can hand out write-time
// checksums — letting a client catch corruption that happened in the
// store itself, not just on the wire. blockSize is the sidecar
// granularity and should match the cluster element size; values <= 0
// leave the feature off.
func WithCRC(blockSize int64) ServerOption {
	return func(s *Server) {
		if blockSize > 0 {
			s.crcBlock = blockSize
		}
	}
}

// rateLimiter spaces transfers so that aggregate throughput stays at the
// configured rate: each transfer reserves a completion slot after all
// earlier ones, exactly like requests queueing at one disk.
type rateLimiter struct {
	perByte time.Duration
	mu      sync.Mutex
	next    time.Time
}

func (l *rateLimiter) wait(n int) {
	l.mu.Lock()
	now := time.Now()
	if l.next.Before(now) {
		l.next = now
	}
	due := l.next.Add(time.Duration(n) * l.perByte)
	l.next = due
	l.mu.Unlock()
	time.Sleep(time.Until(due))
}

// Server exports one store (optionally with device management) over a
// listener. Connections are handled concurrently; the store's own
// locking provides consistency.
type Server struct {
	store    Store
	direct   DirectStore // non-nil = zero-copy wire path enabled
	mgmt     manager     // nil for bare stores
	readRate *rateLimiter
	metrics  *Metrics   // nil = no metric collection
	tracer   obs.Tracer // nil = no per-op tracing

	// CRC sidecar (WithCRC): one CRC-32C plus a validity bit per
	// crcBlock-sized block of store, maintained inline by every write
	// path and handed out by OpReadVC for exactly-one-block ranges.
	crcBlock int64 // 0 = CRC feature off
	crcMu    sync.Mutex
	crcSums  []uint32
	crcValid []uint64 // bitmap, 1 = crcSums entry matches store content
	// crcBusy tracks blocks with a store write in flight (between
	// beginWrite and endWrite/abortWrite), so overlapping writers from
	// different connections can be detected and denied sidecar
	// publication — see endWrite. Stored by value: entries churn once
	// per write, and a pointer map would put an allocation on the
	// otherwise allocation-free wire path.
	crcBusy map[int64]blockWrite

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer wraps a full device for serving, management included.
func NewServer(device *dev.Device, opts ...ServerOption) *Server {
	s := &Server{store: device, mgmt: device, conns: map[net.Conn]struct{}{}}
	for _, o := range opts {
		o(s)
	}
	s.initWire()
	return s
}

// NewStoreServer wraps a bare store (one disk) for serving. Management
// opcodes return remote errors; the cluster layer owns failure handling.
func NewStoreServer(store Store, opts ...ServerOption) *Server {
	s := &Server{store: store, conns: map[net.Conn]struct{}{}}
	for _, o := range opts {
		o(s)
	}
	s.initWire()
	return s
}

// initWire finishes wire-path setup once options are applied: direct
// (zero-copy) serving when the store exposes memory and no rate limit
// is modeling a spindle, and the CRC sidecar when WithCRC asked for it.
func (s *Server) initWire() {
	if s.readRate == nil {
		s.direct, _ = s.store.(DirectStore)
	}
	if s.crcBlock > 0 {
		blocks := (s.store.Size() + s.crcBlock - 1) / s.crcBlock
		s.crcSums = make([]uint32, blocks)
		s.crcValid = make([]uint64, (blocks+63)/64)
		s.crcBusy = map[int64]blockWrite{}
	}
}

// Listen starts accepting connections on addr ("127.0.0.1:0" for an
// ephemeral test port) and returns the bound address. Serving happens on
// background goroutines until Close.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("blockserver: server already closed")
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		if s.metrics != nil {
			s.metrics.conns.Inc()
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listener and tears down every connection.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// srvConn is one served connection, in either framing. The decode
// scratch (hdr, req) belongs to the goroutine reading requests — the
// sync serve loop or the pipelined demux — so steady-state requests
// allocate nothing.
type srvConn struct {
	s    *Server
	conn net.Conn
	// r is what requests are decoded from: the connection itself in the
	// sync framing, the demux's buffered reader in the pipelined one.
	r io.Reader
	// pipe is the pipelined framing's machinery; nil while the
	// connection speaks the sync framing.
	pipe *pipeSrv
	// pipelined is set by handleFeatures when FeaturePipeline is
	// granted: serveConn switches framings once the reply is written.
	pipelined bool

	hdr  [16]byte
	req  request // the request being decoded
	resp srvResp // the sync framing's reply scratch
	// nb is the persistent writev header: net.Buffers.WriteTo consumes
	// its receiver, so keeping it a field stops the slice header
	// escaping per reply.
	nb net.Buffers
}

// request is one decoded request and its accounting. Read-class
// requests carry their ranges in vecs; the pipelined framing hands a
// pooled copy of the request to a worker.
type request struct {
	op    byte
	tag   uint32 // pipelined framing only
	vecs  []Vec
	total int64
	start time.Time // valid when metrics or tracing are on
	acct  opAcct
	// answered is set once the reply is handed to the framing, which
	// accounts the request at that moment.
	answered bool
}

// serveConn serves one connection in the sync framing until the peer
// disconnects or sends a malformed frame, switching to the pipelined
// framing if OpFeatures grants it.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	c := &srvConn{s: s, conn: conn, r: conn}
	for {
		// The opcode is read through the scratch header: a local array
		// would escape into the conn interface and cost one allocation
		// per request.
		if _, err := io.ReadFull(conn, c.hdr[:1]); err != nil {
			return
		}
		if err := s.dispatch(c, c.hdr[0], 0); err != nil {
			return
		}
		if c.pipelined {
			s.servePipelined(c)
			return
		}
	}
}

// dispatch decodes and executes one request in either framing. A
// returned error tears the connection down (I/O or framing trouble);
// store-level errors travel back as remote errors. A read-class request
// on a pipelined connection is handed to a worker once decoded. Every
// request is accounted when its reply is handed to the framing (see
// send), or here when it tore the connection first.
func (s *Server) dispatch(c *srvConn, op byte, tag uint32) error {
	q := &c.req
	q.op, q.tag, q.acct, q.answered = op, tag, opAcct{}, false
	if s.metrics != nil || s.tracer != nil {
		q.start = time.Now()
	}
	var err error
	switch op {
	case OpRead, OpReadV, OpReadVC, OpCrcV:
		var ok bool
		if ok, err = s.decodeRead(c, q); ok {
			if c.pipe != nil {
				c.pipe.queue(q)
				return nil
			}
			err = s.serveRead(c, q)
		}
	case OpWrite, OpWriteV, OpWriteVC:
		err = s.handleWrite(c, q)
	case OpSize, OpFail, OpRebuild, OpScrub, OpHealth:
		err = s.handleMgmt(c, q)
	case OpFeatures:
		if c.pipe == nil {
			err = s.handleFeatures(c, q)
			break
		}
		err = fmt.Errorf("%w: OpFeatures in a pipelined stream", ErrProtocol)
	default:
		err = fmt.Errorf("%w: unknown opcode %d", ErrProtocol, op)
	}
	switch {
	case !q.answered:
		s.account(q, err)
	case err != nil && s.metrics != nil:
		s.metrics.connsTorn.Inc() // the reply itself could not be written
	}
	return err
}

// account folds one finished request into the metrics and the tracer.
// err is the connection-fatal error: nil for clean requests and for
// requests answered with a remote error.
func (s *Server) account(q *request, err error) {
	if s.metrics == nil && s.tracer == nil {
		return
	}
	d := time.Since(q.start)
	if s.metrics != nil {
		s.metrics.record(q.op, &q.acct, d, err)
	}
	if s.tracer != nil {
		ev := obs.Event{Op: opNames[opSlot(q.op)], Bytes: q.acct.in + q.acct.out, Dur: d, Err: err}
		if ev.Err == nil {
			ev.Err = q.acct.remoteErr
		}
		s.tracer.Trace(ev)
	}
}

// --- replies ------------------------------------------------------------

// srvResp is one reply as an iovec list. bufs[0] is the header frame:
// a 4-byte tag slot (stamped by the pipelined framing, skipped by the
// sync one), the status byte, and the fixed fields. Payload slices —
// store memory on the zero-copy path — follow. frames are the pooled
// buffers to recycle once the reply is written.
type srvResp struct {
	frames []*[]byte
	bufs   [][]byte
}

var srvRespPool = sync.Pool{New: func() any { return new(srvResp) }}

// header starts r with a pooled frame of tag slot | st | n field bytes
// and returns the field area for the caller to fill.
func (r *srvResp) header(st byte, n int) []byte {
	f := getFrame(5 + n)
	(*f)[4] = st
	r.frames = append(r.frames, f)
	r.bufs = append(r.bufs, *f)
	return (*f)[5:]
}

// release recycles r's frames and drops every reference to them and to
// payload memory, so an idle connection's scratch pins nothing.
func (r *srvResp) release() {
	for _, f := range r.frames {
		putFrame(f)
	}
	clear(r.frames)
	r.frames = r.frames[:0]
	clear(r.bufs)
	r.bufs = r.bufs[:0]
}

// newResp returns an empty reply: the connection's scratch in the sync
// framing, which serves one request at a time, or a pooled one in the
// pipelined framing, where workers build replies concurrently.
func (c *srvConn) newResp() *srvResp {
	if c.pipe != nil {
		return srvRespPool.Get().(*srvResp)
	}
	return &c.resp
}

// drop discards a reply that will not be sent.
func (c *srvConn) drop(r *srvResp) {
	r.release()
	if c.pipe != nil {
		srvRespPool.Put(r)
	}
}

// send delivers r in the connection's framing: the sync framing writes
// status|payload at once (one writev, or one write when the reply is a
// single frame), the pipelined one stamps the tag and queues r for the
// coalescing writer. The request is accounted first, before the reply
// can reach the client, so whoever has seen a reply finds its request
// in the metrics. A returned error tears the connection.
func (c *srvConn) send(q *request, r *srvResp) error {
	c.s.account(q, nil)
	q.answered = true
	if c.pipe != nil {
		binary.BigEndian.PutUint32(r.bufs[0], q.tag)
		c.pipe.respCh <- r
		return nil
	}
	r.bufs[0] = r.bufs[0][4:]
	err := sendBufs(c.conn, &c.nb, r.bufs)
	r.release()
	return err
}

// ok answers q with status OK and a fixed payload.
func (c *srvConn) ok(q *request, payload []byte) error {
	r := c.newResp()
	copy(r.header(statusOK, len(payload)), payload)
	return c.send(q, r)
}

// plainErr selects fail's plain error form.
const plainErr = -1

// fail answers q with err on a synchronized stream. A *CRCError travels
// as the statusCRC reply; failed >= 0 selects the vector writes'
// extended error, which credits the leading failed ranges as applied.
func (c *srvConn) fail(q *request, failed int, err error) error {
	q.acct.remoteErr = err
	r := c.newResp()
	if ce, ok := err.(*CRCError); ok {
		b := r.header(statusCRC, 12)
		binary.BigEndian.PutUint32(b, uint32(ce.Range))
		binary.BigEndian.PutUint32(b[4:], ce.Want)
		binary.BigEndian.PutUint32(b[8:], ce.Got)
		return c.send(q, r)
	}
	msg := err.Error()
	n := 4 + len(msg)
	if failed != plainErr {
		n += 4
	}
	b := r.header(statusErr, n)
	if failed != plainErr {
		binary.BigEndian.PutUint32(b, uint32(failed))
		b = b[4:]
	}
	binary.BigEndian.PutUint32(b, uint32(len(msg)))
	copy(b[4:], msg)
	return c.send(q, r)
}
