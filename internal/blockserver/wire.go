package blockserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"shiftedmirror/internal/crc32c"
	"shiftedmirror/internal/raid"
)

// This file holds the server's one handler per opcode, shared by both
// framings: each decodes its request from the connection's reader and
// answers through the connection's reply sink (see srvConn.send), never
// knowing which framing it runs under. It also keeps the CRC sidecar
// behind the integrity feature.
//
// Copy discipline: with a DirectStore, a gather read is one writev of
// {header, store memory...} and a scatter write reads the socket
// straight into the store region — the kernel's socket copy is the only
// copy left, and the CRC pass (when negotiated) runs over the same
// bytes while they are cache-hot. Pooled buffers remain the fallback
// for stores that cannot expose memory (files, rate-limited spindle
// models, fault-injection wrappers).

// handleFeatures answers the negotiation opcode: the granted subset of
// the client's requested flags, plus the server's CRC block size. A
// granted FeaturePipeline is recorded in c so serveConn can switch the
// connection to the pipelined framing once the reply is on the wire.
func (s *Server) handleFeatures(c *srvConn, q *request) error {
	if _, err := io.ReadFull(c.r, c.hdr[:1]); err != nil {
		return err
	}
	var grant byte
	if s.crcBlock > 0 {
		grant = c.hdr[0] & FeatureCRC
	}
	// Pipelining needs no server-side resources beyond the per-connection
	// goroutines, so it is granted whenever asked for.
	grant |= c.hdr[0] & FeaturePipeline
	c.pipelined = grant&FeaturePipeline != 0
	c.hdr[0] = grant
	binary.BigEndian.PutUint32(c.hdr[1:5], uint32(s.crcBlock))
	return c.ok(q, c.hdr[:5])
}

// decodeRead consumes a read-class request (OpRead, OpReadV, OpReadVC,
// OpCrcV) into q.vecs and q.total. OpRead carries one off|len header,
// the vector opcodes a count and that many. A bad count tears the
// connection; past it the frame's length is known, so every header is
// consumed before any range is judged, and a range that is too long or
// outside the store — or OpReadVC on a server without WithCRC — is
// answered with a remote error (ok = false, err = the reply's error).
func (s *Server) decodeRead(c *srvConn, q *request) (ok bool, err error) {
	count := 1
	if q.op != OpRead {
		if _, err := io.ReadFull(c.r, c.hdr[:4]); err != nil {
			return false, err
		}
		n := binary.BigEndian.Uint32(c.hdr[:4])
		if n == 0 || n > MaxVecCount {
			return false, fmt.Errorf("%w: gather of %d ranges outside [1,%d]", ErrProtocol, n, MaxVecCount)
		}
		count = int(n)
	}
	hdrs := getFrame(vecHdrSize * count)
	defer putFrame(hdrs)
	if _, err := io.ReadFull(c.r, *hdrs); err != nil {
		return false, err
	}
	size := s.store.Size()
	q.vecs = q.vecs[:0]
	q.total = 0
	for i := 0; i < count; i++ {
		v := getVecHdr((*hdrs)[vecHdrSize*i:])
		if err := checkVec(v, size); err != nil {
			return false, c.fail(q, plainErr, err)
		}
		q.vecs = append(q.vecs, v)
		q.total += int64(v.Len)
	}
	if q.total > MaxIOSize {
		return false, c.fail(q, plainErr, fmt.Errorf("%w: gather of %d bytes exceeds limit", ErrProtocol, q.total))
	}
	if q.op == OpReadVC && s.crcBlock == 0 {
		return false, c.fail(q, plainErr, fmt.Errorf("crc read on a server without WithCRC"))
	}
	return true, nil
}

// serveRead answers a decoded read-class request. OpRead, OpReadV and
// OpReadVC share one reply, status | total | [count*crc] | data: a
// direct store's memory is gathered straight into the writev, any other
// store is read into the reply frame.
func (s *Server) serveRead(c *srvConn, q *request) error {
	if q.op == OpCrcV {
		return s.serveCrcV(c, q)
	}
	crcLen := 0
	if q.op == OpReadVC {
		crcLen = 4 * len(q.vecs)
	}
	r := c.newResp()
	if s.direct != nil {
		hdr := r.header(statusOK, 4+crcLen)
		direct := true
		for _, v := range q.vecs {
			p, ok := s.direct.Slice(v.Off, int64(v.Len))
			if !ok {
				direct = false
				break
			}
			r.bufs = append(r.bufs, p)
		}
		if direct {
			binary.BigEndian.PutUint32(hdr, uint32(q.total))
			if crcLen > 0 {
				for i, v := range q.vecs {
					binary.BigEndian.PutUint32(hdr[4+4*i:], s.rangeCRC(v, r.bufs[1+i]))
				}
			}
			q.acct.out += q.total
			q.acct.zeroCopy = true
			return c.send(q, r)
		}
		r.release()
	}
	b := r.header(statusOK, 4+crcLen+int(q.total))
	binary.BigEndian.PutUint32(b, uint32(q.total))
	data := b[4+crcLen:]
	for i, v := range q.vecs {
		d := data[:v.Len]
		data = data[v.Len:]
		if _, err := s.store.ReadAt(d, v.Off); err != nil {
			c.drop(r)
			return c.fail(q, plainErr, err)
		}
		if crcLen > 0 {
			binary.BigEndian.PutUint32(b[4+4*i:], s.rangeCRC(v, d))
		}
	}
	if s.readRate != nil {
		s.readRate.wait(int(q.total))
	}
	q.acct.out += q.total
	return c.send(q, r)
}

// serveCrcV answers OpCrcV: freshly recomputed CRC-32Cs of store
// content for each range, no payload. The sidecar is deliberately NOT
// consulted — recomputing from the bytes on the store is what lets
// Volume.Scrub catch rot that happened after the write landed. The read
// rate limit still applies (the store bytes are read), which is exactly
// the saving's shape: scrub pays disk-read time but not wire time.
func (s *Server) serveCrcV(c *srvConn, q *request) error {
	r := c.newResp()
	b := r.header(statusOK, 4*len(q.vecs))
	buf := getFrame(0)
	defer putFrame(buf)
	for i, v := range q.vecs {
		if s.direct != nil {
			if p, ok := s.direct.Slice(v.Off, int64(v.Len)); ok {
				binary.BigEndian.PutUint32(b[4*i:], crc32c.Sum(p))
				continue
			}
		}
		if cap(*buf) < v.Len {
			*buf = make([]byte, v.Len)
		}
		*buf = (*buf)[:v.Len]
		if _, err := s.store.ReadAt(*buf, v.Off); err != nil {
			c.drop(r)
			return c.fail(q, plainErr, err)
		}
		binary.BigEndian.PutUint32(b[4*i:], crc32c.Sum(*buf))
	}
	if s.readRate != nil {
		s.readRate.wait(int(q.total))
	}
	q.acct.out += int64(4 * len(q.vecs))
	return c.send(q, r)
}

// handleWrite serves OpWrite, OpWriteV and OpWriteVC. OpWrite is one
// off|len|data range with a bare reply; the vector forms carry a count
// (and OpWriteVC a CRC per range) and answer with the applied count or
// the extended error. Ranges are applied as they are decoded, so a
// 64 MiB batch never buffers more than one range at a time.
//
// A bad count or an over-long range tears the connection: the payload
// boundary is untrustworthy, so resynchronizing is impossible. A range
// outside the store, a store error, or a CRC mismatch at range i is
// answered instead: the remaining payload is drained (the stream stays
// synchronized), the reply credits the leading i ranges as applied, and
// a range rejected before the store was touched leaves the CRC sidecar
// alone.
//
// Zero-copy caveat: a direct store receives each range straight into
// store memory, so a range that dies mid-transfer — or is rejected for
// a CRC mismatch — has already scribbled on the store region. Its
// sidecar entry is left invalid and the client sees the write fail, so
// the mirror layer repairs it from the twin; the pooled path keeps the
// stricter never-partially-applied guarantee.
func (s *Server) handleWrite(c *srvConn, q *request) error {
	count, hdrSize := uint32(1), vecHdrSize
	if q.op != OpWrite {
		if _, err := io.ReadFull(c.r, c.hdr[:4]); err != nil {
			return err
		}
		count = binary.BigEndian.Uint32(c.hdr[:4])
		if count == 0 || count > MaxVecCount {
			return fmt.Errorf("%w: scatter of %d ranges outside [1,%d]", ErrProtocol, count, MaxVecCount)
		}
		if q.op == OpWriteVC {
			hdrSize = vecHdrCRCSize
		}
	}
	withCRC := q.op == OpWriteVC
	size := s.store.Size()
	buf := getFrame(0)
	defer putFrame(buf)
	var (
		total  int64
		failed int
		rerr   error // the remote error the reply will carry
	)
	for i := 0; i < int(count); i++ {
		if _, err := io.ReadFull(c.r, c.hdr[:hdrSize]); err != nil {
			return err
		}
		v := getVecHdr(c.hdr[:])
		var want uint32
		if withCRC {
			want = binary.BigEndian.Uint32(c.hdr[12:])
		}
		if v.Len < 0 || v.Len > MaxIOSize {
			return fmt.Errorf("%w: scatter range of %d bytes exceeds limit", ErrProtocol, uint32(v.Len))
		}
		// Sum as int64: on 32-bit platforms int(uint32) can go
		// negative, which would slip past the limit check.
		total += int64(v.Len)
		if total > MaxIOSize {
			return fmt.Errorf("%w: scatter of %d bytes exceeds limit", ErrProtocol, total)
		}
		if rerr == nil {
			if err := checkVec(v, size); err != nil {
				rerr, failed = err, i
			}
		}
		if rerr != nil {
			// The reply is decided; drain the rest to stay synchronized.
			if _, err := io.CopyN(io.Discard, c.r, int64(v.Len)); err != nil {
				return err
			}
			q.acct.in += int64(v.Len)
			continue
		}
		var p []byte
		direct := false
		if s.direct != nil {
			p, direct = s.direct.Slice(v.Off, int64(v.Len))
		}
		if direct {
			s.beginWrite(v.Off, int64(v.Len))
			if _, err := io.ReadFull(c.r, p); err != nil {
				s.abortWrite(v.Off, int64(v.Len))
				return err
			}
			q.acct.zeroCopy = true
		} else {
			if cap(*buf) < v.Len {
				*buf = make([]byte, v.Len)
			}
			p = (*buf)[:v.Len]
			if _, err := io.ReadFull(c.r, p); err != nil {
				return err
			}
		}
		q.acct.in += int64(v.Len)
		if withCRC {
			if got := crc32c.Sum(p); got != want {
				if direct {
					s.abortWrite(v.Off, int64(v.Len))
				}
				rerr, failed = &CRCError{Range: i, Want: want, Got: got, Write: true}, i
				continue
			}
		}
		if !direct {
			s.beginWrite(v.Off, int64(v.Len))
			if _, err := s.store.WriteAt(p, v.Off); err != nil {
				s.abortWrite(v.Off, int64(v.Len))
				rerr, failed = err, i
				continue
			}
		}
		s.endWrite(v.Off, p, want, withCRC)
	}
	switch {
	case rerr != nil && q.op == OpWrite:
		return c.fail(q, plainErr, rerr)
	case rerr != nil:
		return c.fail(q, failed, rerr)
	case q.op == OpWrite:
		return c.ok(q, nil)
	default:
		binary.BigEndian.PutUint32(c.hdr[:4], count)
		return c.ok(q, c.hdr[:4])
	}
}

// handleMgmt serves OpSize and the device-management opcodes. OpFail
// and OpRebuild carry role(1) index(4); a bare-store server answers
// everything but OpSize with a remote error.
func (s *Server) handleMgmt(c *srvConn, q *request) error {
	var id raid.DiskID
	if q.op == OpFail || q.op == OpRebuild {
		if _, err := io.ReadFull(c.r, c.hdr[:5]); err != nil {
			return err
		}
		id = raid.DiskID{Role: raid.Role(c.hdr[0]), Index: int(binary.BigEndian.Uint32(c.hdr[1:5]))}
	}
	if q.op == OpSize {
		binary.BigEndian.PutUint64(c.hdr[:8], uint64(s.store.Size()))
		return c.ok(q, c.hdr[:8])
	}
	if s.mgmt == nil {
		return c.fail(q, plainErr, errUnmanaged)
	}
	var err error
	switch q.op {
	case OpFail:
		err = s.mgmt.FailDisk(id)
	case OpRebuild:
		err = s.mgmt.Rebuild(id)
	case OpScrub:
		err = s.mgmt.Scrub()
	case OpHealth:
		h := s.mgmt.Health()
		failed := s.mgmt.FailedDisks()
		payload := make([]byte, 0, 5*8+4+len(failed)*5)
		for _, v := range []int64{h.ElementsRead, h.ElementsWritten, h.DegradedReads, h.ParityFallbacks, h.StripesRebuilt} {
			payload = binary.BigEndian.AppendUint64(payload, uint64(v))
		}
		payload = binary.BigEndian.AppendUint32(payload, uint32(len(failed)))
		for _, f := range failed {
			payload = append(payload, byte(f.Role))
			payload = binary.BigEndian.AppendUint32(payload, uint32(f.Index))
		}
		return c.ok(q, payload)
	}
	if err != nil {
		return c.fail(q, plainErr, err)
	}
	return c.ok(q, nil)
}

// errUnmanaged answers management opcodes on a bare-store server.
var errUnmanaged = errors.New("store server has no device management")

// --- CRC sidecar ------------------------------------------------------

// rangeCRC returns the checksum OpReadVC carries for one range: the
// write-time sidecar entry when the range is exactly one valid block
// (end-to-end coverage — rot in the store shows up as a client-side
// mismatch), else a fresh CRC of data (wire-only coverage).
func (s *Server) rangeCRC(v Vec, data []byte) uint32 {
	if b := s.crcBlock; b > 0 && v.Off%b == 0 && int64(v.Len) == b {
		idx := v.Off / b
		s.crcMu.Lock()
		if s.crcValid[idx>>6]&(1<<(idx&63)) != 0 {
			crc := s.crcSums[idx]
			s.crcMu.Unlock()
			return crc
		}
		s.crcMu.Unlock()
	}
	return crc32c.Sum(data)
}

// blockWrite tracks the store writes in flight on one sidecar block.
type blockWrite struct {
	writers int
	// overlapped latches once two writes were in flight on the block at
	// the same time: which payload the store kept is unknowable from up
	// here (connections race on the store itself), so none of them may
	// publish a write-time CRC — the block stays invalid and OpReadVC
	// falls back to a fresh CRC of whatever it reads, which is always
	// coherent.
	overlapped bool
}

// beginWrite marks every sidecar block overlapping [off, off+n) as
// having a store write in flight and invalidates its entry — the store
// bytes are about to change, so a concurrent OpReadVC must not serve
// the pre-write sidecar CRC against post-write bytes. Every beginWrite
// must be paired with exactly one endWrite or abortWrite.
func (s *Server) beginWrite(off, n int64) {
	b := s.crcBlock
	if b == 0 || n <= 0 {
		return
	}
	first, last := off/b, (off+n-1)/b
	s.crcMu.Lock()
	for idx := first; idx <= last; idx++ {
		s.crcValid[idx>>6] &^= 1 << (idx & 63)
		w := s.crcBusy[idx]
		w.writers++
		if w.writers > 1 {
			w.overlapped = true
		}
		s.crcBusy[idx] = w
	}
	s.crcMu.Unlock()
}

// releaseBlock drops one in-flight writer from a block and reports
// whether the finished write overlapped no other — only then does its
// payload provably match the store bytes, making its CRC safe to
// publish. Caller holds crcMu.
func (s *Server) releaseBlock(idx int64) bool {
	w, ok := s.crcBusy[idx]
	if !ok {
		return false
	}
	w.writers--
	if w.writers <= 0 {
		delete(s.crcBusy, idx)
		return !w.overlapped
	}
	s.crcBusy[idx] = w
	return false
}

// endWrite closes out a successfully applied write of p at off:
// block-aligned writes publish per-block CRCs (reusing the verified
// carried CRC for the exactly-one-block case, which is what the
// cluster sends, so the common path never checksums twice) — but only
// for blocks whose write overlapped no concurrent writer; unaligned
// writes just release their blocks, leaving them invalid.
func (s *Server) endWrite(off int64, p []byte, known uint32, haveKnown bool) {
	b := s.crcBlock
	if b == 0 || len(p) == 0 {
		return
	}
	n := int64(len(p))
	aligned := off%b == 0 && n%b == 0
	first, last := off/b, (off+n-1)/b
	for idx := first; idx <= last; idx++ {
		var crc uint32
		if aligned {
			if n == b && haveKnown {
				crc = known
			} else {
				blk := idx - first
				crc = crc32c.Sum(p[blk*b : (blk+1)*b])
			}
		}
		s.crcMu.Lock()
		if clean := s.releaseBlock(idx); clean && aligned {
			s.crcSums[idx] = crc
			s.crcValid[idx>>6] |= 1 << (idx & 63)
		}
		s.crcMu.Unlock()
	}
}

// abortWrite closes out a failed or rejected write: the in-flight marks
// are released without publishing anything, so the blocks stay invalid
// (the store may hold a torn or corrupt payload).
func (s *Server) abortWrite(off, n int64) {
	b := s.crcBlock
	if b == 0 || n <= 0 {
		return
	}
	first, last := off/b, (off+n-1)/b
	s.crcMu.Lock()
	for idx := first; idx <= last; idx++ {
		s.releaseBlock(idx)
	}
	s.crcMu.Unlock()
}
