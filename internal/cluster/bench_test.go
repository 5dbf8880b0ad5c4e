package cluster

import (
	"context"
	"testing"

	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/layout"
	"shiftedmirror/internal/raid"
)

// benchVolume serves one in-process MemStore backend per disk over
// loopback TCP and opens a Volume on them — so the numbers include real
// socket round trips, which is exactly what the write-batching gate is
// about.
func benchVolume(b *testing.B, n int, elementSize int64, stripes int) *Volume {
	b.Helper()
	arch := raid.NewMirror(layout.NewShifted(n))
	addrs := map[raid.DiskID]string{}
	perDisk := int64(stripes) * int64(n) * elementSize
	for _, id := range arch.Disks() {
		srv := blockserver.NewStoreServer(dev.NewMemStore(perDisk))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addrs[id] = addr.String()
		b.Cleanup(func() { srv.Close() })
	}
	v, err := New(arch, addrs, fastConfig(elementSize, stripes))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(v.Close)
	return v
}

// BenchmarkClusterWrite measures full-stripe write throughput over
// loopback: one OpWriteV frame per replica backend per stripe.
func BenchmarkClusterWrite(b *testing.B) {
	const n, stripes = 3, 8
	const elementSize = 4096
	stripeSize := int64(n) * int64(n) * elementSize
	b.Run("batched", func(b *testing.B) {
		v := benchVolume(b, n, elementSize, stripes)
		p := make([]byte, stripeSize)
		for i := range p {
			p[i] = byte(i)
		}
		b.SetBytes(stripeSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := int64(i%stripes) * stripeSize
			if _, err := v.WriteAt(p, off); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClusterRebuild measures one-pass network reconstruction of a
// failed disk, write-back included: each iteration declares the disk
// lost again and re-recovers its full image onto the same backend.
// Bytes/op is the rebuilt disk image.
func BenchmarkClusterRebuild(b *testing.B) {
	const n, stripes = 3, 8
	const elementSize = 4096
	v := benchVolume(b, n, elementSize, stripes)
	payload := make([]byte, v.Size())
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	if _, err := v.WriteAt(payload, 0); err != nil {
		b.Fatal(err)
	}
	lost := raid.DiskID{Role: raid.RoleData, Index: 0}
	ctx := context.Background()
	b.SetBytes(v.DiskSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Fail(lost); err != nil {
			b.Fatal(err)
		}
		if err := v.RebuildDisk(ctx, lost); err != nil {
			b.Fatal(err)
		}
	}
}
