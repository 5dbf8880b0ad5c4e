package blockserver

import (
	"encoding/binary"
	"fmt"
	"io"

	"shiftedmirror/internal/crc32c"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/raid"
)

// This file is the client's codec, shared by both framings: one request
// encoder and one response decoder per opcode. An encoded request is
// op(1) | tag slot | fields, where the tag slot is 0 bytes wide in the
// sync framing and 4 in the pipelined one (stamped by the pipe at
// submit), so the fields are byte-identical in both. A response is
// decoded from any io.Reader — the connection itself in the sync
// framing, the pipe's buffered demux reader in the pipelined one —
// after the framing has consumed its tag and status byte.

// call is one client operation: its encoded request, where its response
// lands, and the decoded result. A synchronous client reuses one call
// per connection; every pipelined op embeds its own.
type call struct {
	op     byte
	tagLen int      // width of the tag slot after the opcode
	hdr    []byte   // op | tag slot | fixed fields
	bufs   [][]byte // the request as an iovec list: header chunks interleaved with write payloads

	nvecs int
	total int64
	// dst are the read destinations and outCrcs CrcV's, both the
	// caller's own slices, aliased rather than copied: the decoder
	// touches them only while the caller waits, and a per-connection
	// copy would pin one slice header per range of the largest gather.
	// one backs dst for OpRead.
	dst     [][]byte
	one     [1][]byte
	outCrcs []uint32
	res     result
	scratch [16]byte // fixed-size response fields

	// pop is the pipelined op embedding this call; nil for a sync
	// client's call.
	pop *pipeOp
}

// result is what a decoded response yields besides its error.
type result struct {
	applied int // OpWriteV/OpWriteVC: leading ranges durably applied
	size    uint64
	health  dev.Health
	failed  []raid.DiskID
}

// begin resets x for op and returns the request's n-byte field area,
// which follows the opcode and the tag slot.
func (x *call) begin(op byte, n int) []byte {
	x.op = op
	n += 1 + x.tagLen
	if cap(x.hdr) < n {
		x.hdr = make([]byte, n)
	}
	x.hdr = x.hdr[:n]
	x.hdr[0] = op
	x.bufs = append(x.bufs[:0], x.hdr)
	x.nvecs, x.total, x.res = 0, 0, result{}
	return x.hdr[1+x.tagLen:]
}

// release drops x's references to caller memory, so a reused call does
// not pin it.
func (x *call) release() {
	clear(x.bufs)
	x.bufs = x.bufs[:0]
	x.dst, x.one[0], x.outCrcs = nil, nil, nil
	x.res.failed = nil
}

// putVecs encodes count(4) | count*(off(8) len(4)) into b.
func putVecs(b []byte, vecs []Vec) {
	binary.BigEndian.PutUint32(b, uint32(len(vecs)))
	for i, v := range vecs {
		putVecHdr(b[4+vecHdrSize*i:], v)
	}
}

// --- request encoders ---------------------------------------------------

// encRead encodes OpRead: off(8) len(4). The data lands in dst.
func (x *call) encRead(dst []byte, off int64) {
	putVecHdr(x.begin(OpRead, vecHdrSize), Vec{Off: off, Len: len(dst)})
	x.nvecs, x.total = 1, int64(len(dst))
	x.one[0] = dst
	x.dst = x.one[:]
}

// encReadV encodes OpReadV, or OpReadVC when crc: count(4) |
// count*(off(8) len(4)). Range i lands in dst[i].
func (x *call) encReadV(crc bool, vecs []Vec, dst [][]byte, total int64) {
	op := OpReadV
	if crc {
		op = OpReadVC
	}
	putVecs(x.begin(op, 4+vecHdrSize*len(vecs)), vecs)
	x.nvecs, x.total = len(vecs), total
	x.dst = dst
}

// encWrite encodes OpWrite: off(8) len(4) data, the payload sent
// straight from p.
func (x *call) encWrite(p []byte, off int64) {
	putVecHdr(x.begin(OpWrite, vecHdrSize), Vec{Off: off, Len: len(p)})
	x.bufs = append(x.bufs, p)
}

// encWriteV encodes OpWriteV, or OpWriteVC when crc: count(4) |
// count*(off(8) len(4) [crc(4)] data). The range headers are packed
// into x.hdr and interleaved with the payload slices in the iovec list,
// so payloads are never copied client-side; the carried CRCs are
// computed here, during the gather.
func (x *call) encWriteV(crc bool, vecs []Vec, data [][]byte) {
	op, hsz := OpWriteV, vecHdrSize
	if crc {
		op, hsz = OpWriteVC, vecHdrCRCSize
	}
	b := x.begin(op, 4+hsz*len(vecs))
	binary.BigEndian.PutUint32(b, uint32(len(vecs)))
	bufs := x.bufs[:0]
	start, at := 0, len(x.hdr)-len(b)+4
	for i, v := range vecs {
		putVecHdr(x.hdr[at:], v)
		if crc {
			binary.BigEndian.PutUint32(x.hdr[at+12:], crc32c.Sum(data[i]))
		}
		at += hsz
		bufs = append(bufs, x.hdr[start:at], data[i])
		start = at
	}
	x.bufs = bufs
	x.nvecs = len(vecs)
}

// encCrcV encodes OpCrcV: count(4) | count*(off(8) len(4)). The
// checksums land in out.
func (x *call) encCrcV(vecs []Vec, out []uint32) {
	putVecs(x.begin(OpCrcV, 4+vecHdrSize*len(vecs)), vecs)
	x.nvecs = len(vecs)
	x.outCrcs = out
}

// encMgmt encodes OpSize or a management opcode: OpFail and OpRebuild
// carry role(1) index(4), the others nothing.
func (x *call) encMgmt(op byte, id raid.DiskID) {
	if op != OpFail && op != OpRebuild {
		x.begin(op, 0)
		return
	}
	b := x.begin(op, 5)
	b[0] = byte(id.Role)
	binary.BigEndian.PutUint32(b[1:], uint32(id.Index))
}

// --- response decoder ---------------------------------------------------

// decode consumes the response to x from r; the framing has already
// consumed its status byte. claimed = false means the caller abandoned
// the op: the payload is drained and caller memory (dst, outCrcs) is
// never touched. A *RemoteError or *CRCError leaves the stream
// synchronized; any other error is transport or framing trouble that
// desynchronized it.
func (x *call) decode(r io.Reader, status byte, claimed bool) error {
	if status != statusOK {
		return x.decodeErr(r, status)
	}
	switch x.op {
	case OpRead, OpReadV, OpReadVC:
		return x.decodeRead(r, claimed)
	case OpWrite, OpFail, OpRebuild, OpScrub:
		return nil
	case OpWriteV, OpWriteVC:
		m, err := x.u32(r)
		if err != nil {
			return err
		}
		if int64(m) != int64(x.nvecs) {
			return fmt.Errorf("%w: server applied %d of %d scatter ranges without error", ErrProtocol, m, x.nvecs)
		}
		x.res.applied = x.nvecs
		return nil
	case OpCrcV:
		raw := getFrame(4 * x.nvecs)
		defer putFrame(raw)
		if _, err := io.ReadFull(r, *raw); err != nil {
			return err
		}
		if claimed {
			for i := range x.outCrcs {
				x.outCrcs[i] = binary.BigEndian.Uint32((*raw)[4*i:])
			}
		}
		return nil
	case OpSize:
		if _, err := io.ReadFull(r, x.scratch[:8]); err != nil {
			return err
		}
		x.res.size = binary.BigEndian.Uint64(x.scratch[:8])
		return nil
	case OpHealth:
		return x.decodeHealth(r)
	default:
		return fmt.Errorf("%w: response for unexpected opcode %d", ErrProtocol, x.op)
	}
}

// decodeRead consumes a read reply, total(4) | [nvecs*crc(4)] | data,
// straight into the caller's buffers — never through an intermediate
// one. On a CRC mismatch it keeps consuming the remaining ranges, so
// the stream stays synchronized, and reports the first mismatch.
func (x *call) decodeRead(r io.Reader, claimed bool) error {
	m, err := x.u32(r)
	if err != nil {
		return err
	}
	if int64(m) != x.total {
		return fmt.Errorf("%w: server returned %d bytes for a %d-byte gather", ErrProtocol, m, x.total)
	}
	var crcs []byte
	if x.op == OpReadVC {
		raw := getFrame(4 * x.nvecs)
		defer putFrame(raw)
		if _, err := io.ReadFull(r, *raw); err != nil {
			return err
		}
		crcs = *raw
	}
	if !claimed {
		_, err := io.CopyN(io.Discard, r, x.total)
		return err
	}
	var crcErr error
	for i, d := range x.dst {
		if _, err := io.ReadFull(r, d); err != nil {
			return err
		}
		if crcs != nil && crcErr == nil {
			want := binary.BigEndian.Uint32(crcs[4*i:])
			if got := crc32c.Sum(d); got != want {
				crcErr = &CRCError{Range: i, Want: want, Got: got}
			}
		}
	}
	return crcErr
}

// decodeHealth consumes OpHealth's reply: 5 counters(8 each) |
// nfailed(4) | nfailed*(role(1) index(4)).
func (x *call) decodeHealth(r io.Reader) error {
	var b [5*8 + 4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	var vals [5]int64
	for i := range vals {
		vals[i] = int64(binary.BigEndian.Uint64(b[8*i:]))
	}
	n := binary.BigEndian.Uint32(b[40:])
	if n > 1<<16 {
		return fmt.Errorf("%w: implausible failed-disk count %d", ErrProtocol, n)
	}
	ids := make([]byte, 5*n)
	if _, err := io.ReadFull(r, ids); err != nil {
		return err
	}
	x.res.failed = make([]raid.DiskID, n)
	for i := range x.res.failed {
		x.res.failed[i] = raid.DiskID{Role: raid.Role(ids[5*i]), Index: int(binary.BigEndian.Uint32(ids[5*i+1:]))}
	}
	x.res.health = dev.Health{
		ElementsRead:    vals[0],
		ElementsWritten: vals[1],
		DegradedReads:   vals[2],
		ParityFallbacks: vals[3],
		StripesRebuilt:  vals[4],
	}
	return nil
}

// decodeErr consumes a non-OK response. The vector writes' error
// replies name the failed range — leading the extended error, or inside
// the statusCRC body — which must lie within the request and is
// credited as the applied prefix.
func (x *call) decodeErr(r io.Reader, status byte) error {
	scatter := x.op == OpWriteV || x.op == OpWriteVC
	var failed uint32
	if scatter && status != statusCRC {
		f, err := x.u32(r)
		if err != nil {
			return err
		}
		failed = f
	}
	err := readErrBody(r, status, x.scratch[:])
	if ce, ok := err.(*CRCError); ok {
		failed = uint32(ce.Range)
	} else if !IsRemote(err) {
		return err
	}
	if scatter {
		if int64(failed) >= int64(x.nvecs) {
			return fmt.Errorf("%w: failed-range index %d beyond %d ranges", ErrProtocol, failed, x.nvecs)
		}
		x.res.applied = int(failed)
	}
	return err
}

// u32 reads one big-endian uint32 through x's scratch.
func (x *call) u32(r io.Reader) (uint32, error) {
	if _, err := io.ReadFull(r, x.scratch[:4]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(x.scratch[:4]), nil
}
