package shard

import (
	"encoding/json"
	"testing"

	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/raid"
)

func TestDeviceStateJSON(t *testing.T) {
	for _, st := range []DeviceState{DeviceOnline, DeviceDead, DeviceReplacementPending, DeviceRebuilding} {
		blob, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back DeviceState
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		if back != st {
			t.Fatalf("%v round-tripped to %v", st, back)
		}
	}
	var bad DeviceState
	if err := json.Unmarshal([]byte(`"limping"`), &bad); err == nil {
		t.Fatal("unknown state accepted")
	}
}

// TestDeviceOfRules pins how a child volume's disk state maps to a
// placement state and incompleteness.
func TestDeviceOfRules(t *testing.T) {
	id := raid.DiskID{Role: raid.RoleMirror, Index: 1}
	for _, c := range []struct {
		st   cluster.DiskState
		want DeviceState
	}{
		{cluster.DiskState{Watermark: 8}, DeviceOnline},
		{cluster.DiskState{Dead: true, Watermark: 8}, DeviceDead},
		{cluster.DiskState{Failed: true, Watermark: 3}, DeviceDead},
		{cluster.DiskState{Failed: true, Replacement: true, Dead: true, Watermark: 3}, DeviceReplacementPending},
		{cluster.DiskState{Failed: true, Replacement: true, Rebuilding: true, Watermark: 3}, DeviceRebuilding},
		{cluster.DiskState{Failed: true, Rebuilding: true, Watermark: 3}, DeviceRebuilding},
	} {
		c.st.ID, c.st.Addr = id, "a"
		d := deviceOf(4, 8, c.st)
		if d.State != c.want || d.Group != 4 || d.Disk != "mirror[1]" || d.Addr != "a" ||
			d.Replacement != c.st.Replacement || d.IncompleteStripes != 8-c.st.Watermark {
			t.Fatalf("%+v derived %+v, want state %v", c.st, d, c.want)
		}
	}
}

// TestPlacementTableRollupAndPressure derives the table from child
// volumes put into mixed states directly, and checks the rollup, the
// scheduler's queue order and the JSON snapshot.
func TestPlacementTableRollupAndPressure(t *testing.T) {
	s, backends := newTestShard(t, 2, 32, []int{3, 5, 3}, Config{})
	d0 := raid.DiskID{Role: raid.RoleData, Index: 0}
	d1 := raid.DiskID{Role: raid.RoleData, Index: 1}
	m0 := raid.DiskID{Role: raid.RoleMirror, Index: 0}
	lose := func(gid int, id raid.DiskID, replace bool) {
		child, _ := s.GroupVolume(gid)
		if err := child.Fail(id); err != nil {
			t.Fatal(err)
		}
		if replace {
			if err := child.ReplaceBackend(id, backends[gid].replace(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Group 1: one pending device, 5 stripes missing.
	lose(1, d0, true)
	// Group 2: two non-online devices (one pending, one dead), 6 missing.
	lose(2, d1, true)
	lose(2, m0, false)

	snap := s.Placement()
	r := snap.Rollup
	if r.Online != 9 || r.Dead != 1 || r.ReplacementPending != 2 || r.Rebuilding != 0 {
		t.Fatalf("rollup: %+v", r)
	}
	if r.Replacements != 2 || r.MaxIncompleteness != 5 {
		t.Fatalf("rollup extras: %+v", r)
	}

	q := s.pressure()
	if len(q) != 3 {
		t.Fatalf("pressure groups: %d", len(q))
	}
	// Group 2 first (2 incomplete devices beats group 1's 1), then group
	// 1, then group 0 (clean).
	if q[0].group != 2 || q[1].group != 1 || q[2].group != 0 {
		t.Fatalf("pressure order: %+v", q)
	}
	if len(q[0].pending) != 1 || q[0].pending[0] != d1 {
		t.Fatalf("group 2 pending: %+v", q[0].pending)
	}
	if len(q[2].pending) != 0 {
		t.Fatalf("clean group has pending: %+v", q[2])
	}

	// Snapshot JSON round trip preserves states and ordering.
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Devices) != 12 || back.Rollup != r {
		t.Fatalf("snapshot round trip: %+v", back.Rollup)
	}
	for i := 1; i < len(back.Devices); i++ {
		a, b := back.Devices[i-1], back.Devices[i]
		if a.Group > b.Group || (a.Group == b.Group && a.Disk > b.Disk) {
			t.Fatalf("snapshot unsorted at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestPlanGroupsTier(t *testing.T) {
	devs := []DeviceSpec{
		{Addr: "hdd-a", ReadRateMBps: 100, CapacityBytes: 1 << 30},
		{Addr: "ssd-a", ReadRateMBps: 1000, CapacityBytes: 1 << 30},
		{Addr: "hdd-b", ReadRateMBps: 100, CapacityBytes: 1 << 30},
		{Addr: "ssd-b", ReadRateMBps: 1000, CapacityBytes: 1 << 30},
	}
	groups, err := PlanGroups(devs, 2, 2, 1<<20, PlaceTier)
	if err != nil {
		t.Fatal(err)
	}
	// Tiering keeps the SSDs together so the fast group is never gated
	// by an HDD peer.
	if groups[0][0].Addr != "ssd-a" || groups[0][1].Addr != "ssd-b" {
		t.Fatalf("fast tier: %+v", groups[0])
	}
	if groups[1][0].Addr != "hdd-a" || groups[1][1].Addr != "hdd-b" {
		t.Fatalf("slow tier: %+v", groups[1])
	}
}

func TestPlanGroupsBalance(t *testing.T) {
	devs := []DeviceSpec{
		{Addr: "d1", ReadRateMBps: 400},
		{Addr: "d2", ReadRateMBps: 300},
		{Addr: "d3", ReadRateMBps: 200},
		{Addr: "d4", ReadRateMBps: 100},
	}
	groups, err := PlanGroups(devs, 2, 2, 0, PlaceBalance)
	if err != nil {
		t.Fatal(err)
	}
	// Serpentine: row 0 deals 400,300 left-to-right; row 1 deals 200,100
	// right-to-left — both groups end at 500 aggregate.
	sum := func(g []DeviceSpec) float64 {
		var s float64
		for _, d := range g {
			s += d.ReadRateMBps
		}
		return s
	}
	if sum(groups[0]) != sum(groups[1]) {
		t.Fatalf("unbalanced: %v vs %v", groups[0], groups[1])
	}
}

func TestPlanGroupsUnthrottledIsFastest(t *testing.T) {
	devs := []DeviceSpec{
		{Addr: "capped", ReadRateMBps: 5000},
		{Addr: "uncapped"}, // rate 0 = unthrottled
		{Addr: "slow-a", ReadRateMBps: 100},
		{Addr: "slow-b", ReadRateMBps: 100},
	}
	groups, err := PlanGroups(devs, 2, 2, 0, PlaceTier)
	if err != nil {
		t.Fatal(err)
	}
	if groups[0][0].Addr != "uncapped" {
		t.Fatalf("unthrottled device not ranked fastest: %+v", groups[0])
	}
}

func TestPlanGroupsErrors(t *testing.T) {
	devs := []DeviceSpec{{Addr: "a"}, {Addr: "b"}, {Addr: "c"}}
	if _, err := PlanGroups(devs, 2, 2, 0, PlaceTier); err == nil {
		t.Fatal("short fleet accepted")
	}
	small := []DeviceSpec{
		{Addr: "a", CapacityBytes: 100},
		{Addr: "b", CapacityBytes: 1 << 30},
	}
	if _, err := PlanGroups(small, 1, 2, 1<<20, PlaceTier); err == nil {
		t.Fatal("undersized device accepted")
	}
	if _, err := PlanGroups(devs, 0, 2, 0, PlaceTier); err == nil {
		t.Fatal("zero groups accepted")
	}
	if _, err := PlanGroups(devs, 1, 2, 0, PlacementPolicy(99)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
