package blockserver

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
)

// This file is the server half of the pipelined framing: after
// OpFeatures grants FeaturePipeline, the connection switches to a
// demux goroutine (this connection's serve goroutine — it decodes
// request frames serially off a buffered reader and applies writes and
// management ops inline, preserving the direct-into-store zero-copy
// receive path and stream synchronization), a small pool of read
// workers (so store reads complete out of order instead of
// head-of-line blocking behind a slow range), and one response writer
// that coalesces queued responses into a single vectored write. The
// opcode handlers are the sync framing's own (see dispatch); only the
// framing lives here.
//
// In-flight requests have no ordering guarantee relative to each other;
// a client that needs read-after-write ordering must not overlap the
// two — exactly the contract internal/cluster already honors via its
// volume locking.

// srvPipeWorkers is the per-connection read worker count: enough for
// out-of-order completion, few enough that per-connection cost stays
// trivial.
const srvPipeWorkers = 2

// srvPipeQueue bounds the task and response queues. The client's
// in-flight window is the real backpressure; this just sizes channel
// buffers so the demux rarely blocks on a busy worker.
const srvPipeQueue = 64

// requestPool recycles the request copies handed to read workers.
var requestPool = sync.Pool{New: func() any { return new(request) }}

// pipeSrv is one pipelined connection's framing machinery.
type pipeSrv struct {
	s *Server
	c *srvConn

	taskCh chan *request
	respCh chan *srvResp

	workerWG   sync.WaitGroup
	writerDone chan struct{}
}

// servePipelined runs the connection in the pipelined framing until the
// peer disconnects or a framing violation tears it down. Shutdown
// order: the demux stops, workers drain their queue and exit, then the
// writer drains the response queue and exits — so no goroutine is ever
// left blocked on a channel.
func (s *Server) servePipelined(c *srvConn) {
	ps := &pipeSrv{
		s:          s,
		c:          c,
		taskCh:     make(chan *request, srvPipeQueue),
		respCh:     make(chan *srvResp, srvPipeQueue),
		writerDone: make(chan struct{}),
	}
	c.r = bufio.NewReaderSize(c.conn, pipeReaderSize)
	c.pipe = ps
	ps.workerWG.Add(srvPipeWorkers)
	for i := 0; i < srvPipeWorkers; i++ {
		go ps.readWorker()
	}
	go ps.writeLoop()
	ps.demux()
	close(ps.taskCh)
	ps.workerWG.Wait()
	close(ps.respCh)
	<-ps.writerDone
}

// demux decodes op|tag frames serially and dispatches each one; a
// dispatch error (transport or framing trouble) ends the connection.
func (ps *pipeSrv) demux() {
	c := ps.c
	for {
		if _, err := io.ReadFull(c.r, c.hdr[:5]); err != nil {
			return
		}
		if err := ps.s.dispatch(c, c.hdr[0], binary.BigEndian.Uint32(c.hdr[1:5])); err != nil {
			return
		}
	}
}

// queue hands a decoded read-class request to the workers. q is the
// demux's scratch, reused for the next frame, so the workers get a
// pooled copy.
func (ps *pipeSrv) queue(q *request) {
	t := requestPool.Get().(*request)
	vecs := t.vecs
	*t = *q
	t.vecs = append(vecs[:0], q.vecs...)
	ps.taskCh <- t
}

// readWorker serves queued read-class requests; each reply is built
// independently, so a slow range on one tag never blocks another tag's
// completion.
func (ps *pipeSrv) readWorker() {
	defer ps.workerWG.Done()
	for t := range ps.taskCh {
		ps.s.serveRead(ps.c, t) // replies are queued, so sends never fail
		t.acct = opAcct{}
		requestPool.Put(t)
	}
}

// writeLoop coalesces queued responses into vectored writes: all
// responses ready at wake-up go out in one writev. On a write error it
// keeps draining (recycling frames) until the channel closes, so
// workers and the demux never block on a dead peer.
func (ps *pipeSrv) writeLoop() {
	defer close(ps.writerDone)
	var pend []*srvResp
	var bufs [][]byte
	var nb net.Buffers
	broken := false
	for r := range ps.respCh {
		pend = append(pend[:0], r)
		// Same trick as the client writer: yield once so the workers and
		// demux that are mid-enqueue land their responses before the
		// gather, deepening the batch behind each writev.
		runtime.Gosched()
	gather:
		for {
			select {
			case r2, ok := <-ps.respCh:
				if !ok {
					break gather
				}
				pend = append(pend, r2)
			default:
				break gather
			}
		}
		if !broken {
			bufs = bufs[:0]
			for _, r := range pend {
				bufs = append(bufs, r.bufs...)
			}
			nb = net.Buffers(bufs)
			if _, err := nb.WriteTo(ps.c.conn); err != nil {
				// Tear the connection: the demux wakes on its next read
				// and starts the shutdown cascade.
				ps.c.conn.Close()
				broken = true
			}
		}
		for _, r := range pend {
			r.release()
			srvRespPool.Put(r)
		}
	}
}
