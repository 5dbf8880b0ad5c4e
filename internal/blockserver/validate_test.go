package blockserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"shiftedmirror/internal/dev"
)

// framings names the two wire framings for table-driven tests.
var framings = []struct {
	name     string
	features byte
}{
	{"sync", 0},
	{"pipelined", FeaturePipeline},
}

// sidecarValid reports whether the CRC sidecar holds a write-time
// checksum for block idx.
func sidecarValid(srv *Server, idx int64) bool {
	srv.crcMu.Lock()
	defer srv.crcMu.Unlock()
	return srv.crcValid[idx>>6]&(1<<(idx&63)) != 0
}

// TestServerRejectsOutOfStoreRanges pins the one range rule on a
// WithCRC server, in both framings and over direct and pooled stores: a
// write range past the store end, or at an offset >= 2^63 (negative as
// an int64), is answered like a store error at that range — the leading
// ranges are credited, the rest drained, the sidecar left alone — and a
// read of such a range gets a remote error. None of them may crash the
// server or poison the connection.
func TestServerRejectsOutOfStoreRanges(t *testing.T) {
	const (
		blk = 512
		// 64 blocks fill the sidecar bitmap's one word exactly, so a
		// range past the end indexes past the bitmap.
		size = 64 * blk
	)
	for _, fr := range framings {
		for _, direct := range []bool{true, false} {
			name := fr.name + "/" + map[bool]string{true: "direct", false: "pooled"}[direct]
			t.Run(name, func(t *testing.T) {
				mem := dev.NewMemStore(size)
				var store Store = mem
				if !direct {
					store = opaqueStore{mem}
				}
				srv := NewStoreServer(store, WithCRC(blk))
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				crcCli, err := DialConfig(addr.String(), Config{Features: FeatureCRC | fr.features})
				if err != nil {
					t.Fatal(err)
				}
				defer crcCli.Close()
				plainCli, err := DialConfig(addr.String(), Config{Features: fr.features})
				if err != nil {
					t.Fatal(err)
				}
				defer plainCli.Close()

				last := bytes.Repeat([]byte{0x5A}, blk)
				if _, err := crcCli.WriteV([]Vec{{Off: size - blk, Len: blk}}, [][]byte{last}); err != nil {
					t.Fatal(err)
				}
				if !sidecarValid(srv, size/blk-1) {
					t.Fatal("setup: last block's sidecar entry not published")
				}
				head := bytes.Repeat([]byte{0xA5}, blk)
				tail := bytes.Repeat([]byte{0x3C}, blk)
				straddle := Vec{Off: size - blk/2, Len: blk}
				huge := Vec{Off: math.MinInt64, Len: blk}
				// Each client writes and reads back its own two blocks on
				// its own connection: the race detector cannot see the
				// ordering a pipelined socket provides between connections.
				for k, cli := range []*Client{crcCli, plainCli} { // OpWriteVC, then OpWriteV
					base := int64(2 * k * blk)
					for _, bad := range []Vec{straddle, huge} {
						vecs := []Vec{{Off: base, Len: blk}, bad, {Off: base + blk, Len: blk}}
						applied, err := cli.WriteV(vecs, [][]byte{head, make([]byte, blk), tail})
						if !IsRemote(err) || applied != 1 {
							t.Fatalf("scatter with range %+v: applied %d, %v; want 1 and a remote error", bad, applied, err)
						}
					}
					for _, off := range []int64{straddle.Off, huge.Off} { // OpWrite
						if _, err := cli.WriteAt(make([]byte, blk), off); !IsRemote(err) {
							t.Fatalf("write at %d: %v, want a remote error", off, err)
						}
					}
					for _, bad := range []Vec{straddle, huge} { // OpReadV / OpReadVC
						if err := cli.ReadV([]Vec{bad}, [][]byte{make([]byte, blk)}); !IsRemote(err) {
							t.Fatalf("gather of %+v: %v, want a remote error", bad, err)
						}
					}
					if _, err := cli.ReadAt(make([]byte, blk), huge.Off); !IsRemote(err) {
						t.Fatalf("read at %d: %v, want a remote error", huge.Off, err)
					}
					if err := cli.Broken(); err != nil {
						t.Fatalf("rejected ranges poisoned the connection: %v", err)
					}
					got := make([]byte, 2*blk)
					if _, err := cli.ReadAt(got, base); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got[:blk], head) {
						t.Fatal("the range before the rejected one was not applied")
					}
					if !bytes.Equal(got[blk:], make([]byte, blk)) {
						t.Fatal("a range after the rejected one was applied")
					}
				}
				if err := crcCli.CrcV(context.Background(), []Vec{straddle}, make([]uint32, 1)); !IsRemote(err) {
					t.Fatalf("CrcV of %+v: %v, want a remote error", straddle, err)
				}
				if !sidecarValid(srv, size/blk-1) {
					t.Fatal("a rejected range touched the sidecar of the block it overlaps")
				}
				got := make([]byte, blk)
				if err := crcCli.ReadV([]Vec{{Off: size - blk, Len: blk}}, [][]byte{got}); err != nil || !bytes.Equal(got, last) {
					t.Fatalf("last block after the rejections: %v", err)
				}
				srv.crcMu.Lock()
				busy := len(srv.crcBusy)
				srv.crcMu.Unlock()
				if busy != 0 {
					t.Fatalf("%d sidecar blocks left marked in flight", busy)
				}
			})
		}
	}
}

// TestTornConnectionCounted pins the accounting of a framing violation
// in both framings: the connection is torn, counted in
// sm_blockserver_connections_torn_total, and the offending request is
// counted in ops and latency.
func TestTornConnectionCounted(t *testing.T) {
	for _, fr := range framings {
		t.Run(fr.name, func(t *testing.T) {
			m := NewMetrics()
			srv := NewStoreServer(dev.NewMemStore(4096), WithMetrics(m))
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			req := []byte{OpWriteV}
			if fr.features&FeaturePipeline != 0 {
				if _, err := conn.Write([]byte{OpFeatures, FeaturePipeline}); err != nil {
					t.Fatal(err)
				}
				if err := readStatus(conn); err != nil {
					t.Fatal(err)
				}
				var grant [5]byte
				if _, err := io.ReadFull(conn, grant[:]); err != nil || grant[0] != FeaturePipeline {
					t.Fatalf("pipeline not granted: %v %v", grant, err)
				}
				req = binary.BigEndian.AppendUint32(req, 7) // tag
			}
			req = binary.BigEndian.AppendUint32(req, 0) // count = 0: a framing violation
			if _, err := conn.Write(req); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := conn.Read(make([]byte, 1)); err == nil {
				t.Fatalf("server answered a zero-count scatter with %d bytes", n)
			}
			s := m.Snapshot()
			if s.ConnsTorn != 1 {
				t.Errorf("connections torn = %d, want 1", s.ConnsTorn)
			}
			if op := s.Ops["writev"]; op.Ops != 1 || op.Lat.Count != 1 {
				t.Errorf("writev = %+v, want the torn request counted once with one latency sample", op)
			}
		})
	}
}
