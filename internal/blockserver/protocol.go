// Package blockserver exports a dev.Device over TCP with a small
// length-prefixed binary protocol (an NBD-style remote block device), so
// the shifted-mirror data path can back clients on other machines. The
// client side implements io.ReaderAt/io.WriterAt plus the management
// operations (fail, rebuild, scrub, health).
//
// Protocol, all integers big-endian:
//
//	request  = op(1) | payload
//	response = status(1) | payload        status 0 = ok, 1 = error, 2 = crc
//	error payload = len(4) | message
//	crc payload   = failed(4) | want(4) | got(4)
//
//	OpRead     req: off(8) len(4)          ok: len(4) data
//	OpWrite    req: off(8) len(4) data     ok: -
//	OpSize     req: -                      ok: size(8)
//	OpFail     req: role(1) index(4)       ok: -
//	OpRebuild  req: role(1) index(4)       ok: -
//	OpScrub    req: -                      ok: -
//	OpHealth   req: -                      ok: 5 counters(8 each) |
//	                                           nfailed(4) | nfailed*(role(1) index(4))
//	OpReadV    req: count(4) | count*(off(8) len(4))
//	                                       ok: total(4) | concatenated data
//	OpWriteV   req: count(4) | count*(off(8) len(4) data)
//	                                       ok: applied(4)
//	                                       err: failed(4) | len(4) | message
//	OpFeatures req: flags(1)               ok: flags(1) | crcblock(4)
//	OpReadVC   req: count(4) | count*(off(8) len(4))
//	                                       ok: total(4) | count*crc(4) | data
//	OpWriteVC  req: count(4) | count*(off(8) len(4) crc(4) data)
//	                                       ok: applied(4)
//	                                       err: failed(4) | len(4) | message
//	                                       crc: failed(4) | want(4) | got(4)
//	OpCrcV     req: count(4) | count*(off(8) len(4))
//	                                       ok: count*crc(4)
//
// OpReadV gathers up to MaxVecCount element-granular ranges in one round
// trip, so a cluster-level stripe read does not pay one network round
// trip per element. OpWriteV is its scatter twin: up to MaxVecCount
// ranges (total payload bounded by MaxIOSize) applied in request order
// in one round trip.
//
// Both framings validate requests by one rule, in one decoder per
// opcode. A violation that leaves the frame's length unknowable tears
// the connection without a response: an unknown opcode (OpFeatures
// included, once the stream is pipelined), a vector count outside
// [1, MaxVecCount], a write range longer than MaxIOSize or a write frame
// whose ranges total more, and a truncated frame. Everything else is
// answered with a remote error on a synchronized stream, because the
// frame's length is known and the server consumes it first: a read
// range longer than MaxIOSize, read ranges totalling more, and any range
// outside [0, store size) — offsets >= 2^63, which decode negative,
// included. A write is judged range by range as it is applied: at the
// first range outside the store, store error, or CRC mismatch, the
// server drains the rest of the frame and answers with the extended
// error, or the CRC reply, carrying failed = i, so the client can credit
// the leading i ranges as durably applied (OpWrite, a single range,
// gets the plain error); a range rejected before it
// reached the store leaves the CRC sidecar alone. The range being
// decoded when the stream died is never partially applied (except by a
// direct-store server, which trades that guarantee for the zero-copy
// receive path; see DESIGN.md §12).
//
// OpFeatures negotiates optional capabilities: the client sends the
// flags it wants, the server answers with the subset it grants plus its
// CRC block size. Servers predating OpFeatures tear the connection on
// the unknown opcode, which the client treats as "no features" and
// redials plain — old and new peers always interoperate. OpReadVC /
// OpWriteVC are the CRC-carrying twins of OpReadV / OpWriteV
// (FeatureCRC must be granted): one CRC-32C per range, verified by the
// receiving end, so corruption anywhere past the sender's checksum pass
// — wire, buffers, or the store itself for ranges covered by the
// server's CRC sidecar — is detected instead of returned as data. A
// server-side CRC mismatch on write is answered with the statusCRC
// response (stream synchronized, leading `failed` ranges applied, like
// the extended write error). OpCrcV returns freshly recomputed CRCs of
// store content without the data; Volume.Scrub uses it to compare
// replicas without shipping every byte.
package blockserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Opcodes.
const (
	OpRead byte = iota + 1
	OpWrite
	OpSize
	OpFail
	OpRebuild
	OpScrub
	OpHealth
	OpReadV
	OpWriteV
	OpFeatures
	OpReadVC
	OpWriteVC
	OpCrcV
)

// Status codes.
const (
	statusOK  byte = 0
	statusErr byte = 1
	statusCRC byte = 2
)

// Feature flags carried in OpFeatures.
const (
	// FeatureCRC enables the CRC-carrying vector opcodes (OpReadVC,
	// OpWriteVC, OpCrcV). Granted only by servers running with WithCRC.
	FeatureCRC byte = 1 << 0
	// FeaturePipeline switches the connection to the tagged, pipelined
	// framing after the OpFeatures exchange completes: every request
	// carries a 32-bit tag, responses may complete out of order, and
	// both ends coalesce frames into vectored writes. Payload layouts
	// are identical to the synchronous framing:
	//
	//	request  = op(1) | tag(4) | payload
	//	response = tag(4) | status(1) | payload
	//
	// Old servers tear the probe connection on OpFeatures (the client
	// redials plain), and servers that recognize OpFeatures but predate
	// this flag simply do not grant it — either way the client falls
	// back to the synchronous one-op-per-connection path. See DESIGN.md
	// §16 for the window/coalescing design.
	FeaturePipeline byte = 1 << 1
)

// MaxIOSize bounds a single read or write payload (a protocol sanity
// limit, not a device limit). An OpReadV response and an OpWriteV
// request count the sum of their ranges against the same limit.
const MaxIOSize = 64 << 20

// MaxVecCount bounds the number of ranges in one OpReadV or OpWriteV
// request.
const MaxVecCount = 4096

// ErrProtocol reports a malformed frame.
var ErrProtocol = errors.New("blockserver: protocol violation")

// Vec is one range of an OpReadV gather request.
type Vec struct {
	Off int64
	Len int
}

// RemoteError is an application-level error reported by the server (the
// device or store rejected the operation). The connection remains
// synchronized after one: the full response frame was consumed, so the
// client keeps using it. Transport and framing errors are NOT
// RemoteErrors and poison the client connection.
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "blockserver: remote: " + e.Msg }

// IsRemote reports whether err is (or wraps) a server-side RemoteError,
// as opposed to a transport, timeout, or framing failure.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// CRCError reports a per-range CRC-32C mismatch: the client caught
// corrupted read data, or the server rejected corrupted write data. The
// stream stays synchronized after one (both ends consumed their full
// frames), so like a RemoteError it does not poison the connection —
// but unlike one it means the bytes, not the operation, are bad, so
// callers fail over to another replica rather than retry here.
type CRCError struct {
	// Range is the index of the first mismatching range in the request.
	Range int
	// Want is the expected checksum, Got the checksum of the bytes that
	// actually arrived.
	Want, Got uint32
	// Write is true when the server rejected a write, false when the
	// client caught a corrupt read.
	Write bool
}

// Error implements error.
func (e *CRCError) Error() string {
	dir := "read"
	if e.Write {
		dir = "write"
	}
	return fmt.Sprintf("blockserver: crc mismatch on %s range %d: want %#08x, got %#08x",
		dir, e.Range, e.Want, e.Got)
}

// IsCRC reports whether err is (or wraps) a CRCError.
func IsCRC(err error) bool {
	var ce *CRCError
	return errors.As(err, &ce)
}

// ErrNoCRC is returned by Client.CrcV when the connection did not
// negotiate FeatureCRC. It is returned before anything touches the
// wire, so the connection stays healthy; the pool treats it like a
// remote error (no retry, no dead-marking).
var ErrNoCRC = errors.New("blockserver: crc feature not negotiated")

// framePool recycles request/response frame buffers so the read/write
// hot path allocates nothing per request at steady state.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

func getFrame(n int) *[]byte {
	p := framePool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

func putFrame(p *[]byte) { framePool.Put(p) }

// sendBufs writes a frame held as an iovec list: one write for a single
// buffer, one writev otherwise. nb is the caller's persistent
// net.Buffers header (WriteTo consumes its receiver; a field keeps the
// slice header from escaping per call). The single-buffer write also
// keeps what the race detector sees: a write(2) publishes a
// happens-before edge to the peer's read(2), a writev(2) does not, and
// tests that touch a store directly between wire ops rely on the edge.
func sendBufs(conn net.Conn, nb *net.Buffers, bufs [][]byte) error {
	if len(bufs) == 1 {
		_, err := conn.Write(bufs[0])
		return err
	}
	*nb = net.Buffers(bufs)
	_, err := nb.WriteTo(conn)
	return err
}

// Vec header sizes on the wire: off(8) len(4), plus crc(4) in the
// CRC-carrying write opcode.
const (
	vecHdrSize    = 12
	vecHdrCRCSize = 16
)

// putVecHdr encodes v's off|len header into b[:vecHdrSize]. Every
// encoder of a vector range — client request builders and tests alike —
// goes through here so the wire layout is single-sourced.
func putVecHdr(b []byte, v Vec) {
	binary.BigEndian.PutUint64(b, uint64(v.Off))
	binary.BigEndian.PutUint32(b[8:], uint32(v.Len))
}

// getVecHdr decodes an off|len header from b[:vecHdrSize].
func getVecHdr(b []byte) Vec {
	return Vec{
		Off: int64(binary.BigEndian.Uint64(b)),
		Len: int(binary.BigEndian.Uint32(b[8:])),
	}
}

// checkVec validates one decoded range against the store: a length
// the protocol allows and a span inside [0, size). The server's read and
// write decoders run it on every range before the store or its CRC
// sidecar is touched.
func checkVec(v Vec, size int64) error {
	if v.Len < 0 || v.Len > MaxIOSize {
		return fmt.Errorf("%w: range of %d bytes exceeds limit", ErrProtocol, uint32(v.Len))
	}
	// Off > size-Len, not Off+Len > size: an offset near 2^63 must not
	// overflow past the check.
	if v.Off < 0 || v.Off > size-int64(v.Len) {
		return fmt.Errorf("%w: %d-byte range at offset %d outside store of %d bytes",
			ErrProtocol, v.Len, v.Off, size)
	}
	return nil
}

// checkVecs validates a client-side vector request: count, destination
// lengths, and the MaxIOSize total. Returns the summed payload size.
func checkVecs(vecs []Vec) (int64, error) {
	if len(vecs) == 0 || len(vecs) > MaxVecCount {
		return 0, fmt.Errorf("%w: %d ranges (max %d)", ErrProtocol, len(vecs), MaxVecCount)
	}
	var total int64
	for _, v := range vecs {
		if v.Len <= 0 || v.Off < 0 {
			return 0, fmt.Errorf("%w: bad range off=%d len=%d", ErrProtocol, v.Off, v.Len)
		}
		total += int64(v.Len)
	}
	if total > MaxIOSize {
		return 0, fmt.Errorf("%w: %d bytes total (max %d)", ErrProtocol, total, MaxIOSize)
	}
	return total, nil
}

// readStatus consumes a response's status byte and, when it is not
// OK, the error body it announces (see readErrBody).
func readStatus(r io.Reader) error {
	var b [12]byte
	if _, err := io.ReadFull(r, b[:1]); err != nil {
		return err
	}
	if b[0] == statusOK {
		return nil
	}
	return readErrBody(r, b[0], b[:])
}

// readErrBody decodes the body of a non-OK response into its error:
// statusCRC's failed(4) | want(4) | got(4) as a *CRCError, any other
// status's len(4) | message as a *RemoteError. b is scratch of at least
// 12 bytes. Any other returned error is transport or framing trouble.
func readErrBody(r io.Reader, status byte, b []byte) error {
	if status == statusCRC {
		if _, err := io.ReadFull(r, b[:12]); err != nil {
			return err
		}
		return &CRCError{
			Range: int(binary.BigEndian.Uint32(b)),
			Want:  binary.BigEndian.Uint32(b[4:]),
			Got:   binary.BigEndian.Uint32(b[8:]),
			Write: true,
		}
	}
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(b)
	if n > 1<<16 {
		return fmt.Errorf("%w: oversized error message (%d bytes)", ErrProtocol, n)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return err
	}
	return &RemoteError{Msg: string(msg)}
}
