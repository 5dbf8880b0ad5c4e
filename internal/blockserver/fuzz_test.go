package blockserver

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/raid"
)

// Fuzz store shape: small enough that any range a frame can name is
// cheap to serve, with the CRC sidecar on so the write paths exercise it.
const (
	fuzzBlock = 512
	fuzzSize  = 64 * fuzzBlock
)

// FuzzServerRequest feeds arbitrary bytes to one server connection as a
// request stream, in the sync framing or — after an OpFeatures exchange
// granting FeaturePipeline — the pipelined one, over a direct or a
// pooled store. Whatever the bytes, the server must not panic or hang,
// and every sidecar block a write marked in flight must be released.
//
// Run with: go test -run '^$' -fuzz '^FuzzServerRequest$' ./internal/blockserver
func FuzzServerRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, pipelined, direct bool, data []byte) {
		mem := dev.NewMemStore(fuzzSize)
		var store Store = mem
		if !direct {
			store = opaqueStore{mem}
		}
		srv := NewStoreServer(store, WithCRC(fuzzBlock))
		client, server := net.Pipe()
		served := make(chan struct{})
		go func() {
			srv.serveConn(server)
			close(served)
		}()
		drained := make(chan struct{})
		go func() {
			io.Copy(io.Discard, client)
			close(drained)
		}()
		if pipelined {
			client.Write([]byte{OpFeatures, FeaturePipeline})
		}
		client.Write(data) // fails once the server tears the connection
		client.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("server still serving 10s after the peer hung up")
		}
		<-drained
		srv.crcMu.Lock()
		busy := len(srv.crcBusy)
		srv.crcMu.Unlock()
		if busy != 0 {
			t.Fatalf("%d sidecar blocks left marked in flight", busy)
		}
	})
}

// fuzzCalls are the request shapes FuzzClientResponse decodes replies
// against, one per opcode the client sends (OpFeatures is decoded at
// dial time by negotiate).
var fuzzCalls = []func(x *call){
	func(x *call) { x.encRead(make([]byte, 16), 0) },
	func(x *call) { x.encReadV(false, fuzzVecs, fuzzBufs(), 32) },
	func(x *call) { x.encReadV(true, fuzzVecs, fuzzBufs(), 32) },
	func(x *call) { x.encWrite(make([]byte, 16), 0) },
	func(x *call) { x.encWriteV(false, fuzzVecs, fuzzBufs()) },
	func(x *call) { x.encWriteV(true, fuzzVecs, fuzzBufs()) },
	func(x *call) { x.encCrcV(fuzzVecs, make([]uint32, len(fuzzVecs))) },
	func(x *call) { x.encMgmt(OpSize, raid.DiskID{}) },
	func(x *call) { x.encMgmt(OpFail, raid.DiskID{}) },
	func(x *call) { x.encMgmt(OpRebuild, raid.DiskID{}) },
	func(x *call) { x.encMgmt(OpScrub, raid.DiskID{}) },
	func(x *call) { x.encMgmt(OpHealth, raid.DiskID{}) },
}

var fuzzVecs = []Vec{{Off: 0, Len: 16}, {Off: 64, Len: 16}}

func fuzzBufs() [][]byte { return [][]byte{make([]byte, 16), make([]byte, 16)} }

// FuzzClientResponse decodes arbitrary bytes as the reply to each
// request shape: data[0] is the status byte, the rest the body. Both
// framings share this decoder — the pipelined reader consumes tag and
// status, the sync exchange just the status, then both call decode. It
// must not panic, and a scatter's applied count must stay honest: all
// ranges on success, fewer on a remote or CRC error, none on a
// transport or framing error.
//
// Run with: go test -run '^$' -fuzz '^FuzzClientResponse$' ./internal/blockserver
func FuzzClientResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape byte, claimed bool, data []byte) {
		if len(data) == 0 {
			return
		}
		var x call
		fuzzCalls[int(shape)%len(fuzzCalls)](&x)
		err := x.decode(bytes.NewReader(data[1:]), data[0], claimed)
		if x.op != OpWriteV && x.op != OpWriteVC {
			return
		}
		switch {
		case err == nil:
			if x.res.applied != x.nvecs {
				t.Fatalf("clean scatter reply credited %d of %d ranges", x.res.applied, x.nvecs)
			}
		case IsRemote(err) || IsCRC(err):
			if x.res.applied < 0 || x.res.applied >= x.nvecs {
				t.Fatalf("scatter error credited %d of %d ranges", x.res.applied, x.nvecs)
			}
		default:
			if x.res.applied != 0 {
				t.Fatalf("transport error %v credited %d ranges", err, x.res.applied)
			}
		}
	})
}
