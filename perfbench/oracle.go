package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// oracle knows the bytes every slot of a volume must hold. The volume
// is cut into fixed-size slots; a slot's content is a pure function of
// (seed, slot, version), where version counts the writes to that slot
// (0 is the prefill). Each payload starts with a 16-byte stamp naming
// its slot and version, so a read served from the wrong place or the
// wrong generation never compares equal, and continues with a window of
// a seeded random pool, so checking a read is one memory compare.
//
// ver is not synchronized: closed-loop workers own disjoint slots, and
// the open-loop tenant serializes each slot under a lock.
type oracle struct {
	seed     uint64
	slotSize int
	pool     []byte
	ver      []uint32
}

const (
	poolBytes = 1 << 20
	stampLen  = 16
)

func newOracle(seed int64, size int64, slotSize int) *oracle {
	pool := make([]byte, poolBytes+slotSize)
	rand.New(rand.NewSource(seed)).Read(pool)
	return &oracle{
		seed:     uint64(seed),
		slotSize: slotSize,
		pool:     pool,
		ver:      make([]uint32, size/int64(slotSize)),
	}
}

func (o *oracle) slots() int { return len(o.ver) }

// window picks the pool window for one (slot, version) by splitmix64.
func (o *oracle) window(slot int, ver uint32) []byte {
	z := o.seed ^ uint64(slot)<<20 ^ uint64(ver)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	at := int(z % poolBytes)
	return o.pool[at : at+o.slotSize]
}

func (o *oracle) stamp(b []byte, slot int, ver uint32) {
	binary.LittleEndian.PutUint64(b[0:], uint64(slot))
	binary.LittleEndian.PutUint32(b[8:], ver)
	binary.LittleEndian.PutUint32(b[12:], uint32(o.seed))
}

// fill writes the payload of (slot, ver) into buf (one slot long).
func (o *oracle) fill(buf []byte, slot int, ver uint32) {
	copy(buf, o.window(slot, ver))
	o.stamp(buf, slot, ver)
}

// check reports whether buf (one slot long) holds (slot, ver).
func (o *oracle) check(buf []byte, slot int, ver uint32) bool {
	var want [stampLen]byte
	o.stamp(want[:], slot, ver)
	return bytes.Equal(buf[:stampLen], want[:]) && bytes.Equal(buf[stampLen:], o.window(slot, ver)[stampLen:])
}

// volumeIO is the context-first data path every volume under test has.
type volumeIO interface {
	ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error)
	WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error)
}

// ioChunk is the transfer size of prefill and read-back.
const ioChunk = 1 << 20

// prefill writes version 0 of every slot.
func (o *oracle) prefill(ctx context.Context, v volumeIO) error {
	return o.chunks(func(buf []byte, off int64, first int) error {
		for i := 0; i < len(buf)/o.slotSize; i++ {
			o.fill(buf[i*o.slotSize:(i+1)*o.slotSize], first+i, 0)
		}
		if _, err := v.WriteAtCtx(ctx, buf, off); err != nil {
			return fmt.Errorf("prefill at %d: %w", off, err)
		}
		return nil
	})
}

// readBack reads the whole volume and checks every slot against its
// current version.
func (o *oracle) readBack(ctx context.Context, v volumeIO) error {
	return o.chunks(func(buf []byte, off int64, first int) error {
		if _, err := v.ReadAtCtx(ctx, buf, off); err != nil {
			return fmt.Errorf("read-back at %d: %w", off, err)
		}
		for i := 0; i < len(buf)/o.slotSize; i++ {
			slot := first + i
			if !o.check(buf[i*o.slotSize:(i+1)*o.slotSize], slot, o.ver[slot]) {
				return fmt.Errorf("read-back: slot %d does not hold version %d", slot, o.ver[slot])
			}
		}
		return nil
	})
}

// chunks walks the volume in ioChunk pieces of whole slots.
func (o *oracle) chunks(fn func(buf []byte, off int64, firstSlot int) error) error {
	per := ioChunk / o.slotSize
	if per < 1 {
		per = 1
	}
	buf := make([]byte, per*o.slotSize)
	for first := 0; first < len(o.ver); first += per {
		n := per
		if first+n > len(o.ver) {
			n = len(o.ver) - first
		}
		if err := fn(buf[:n*o.slotSize], int64(first)*int64(o.slotSize), first); err != nil {
			return err
		}
	}
	return nil
}
