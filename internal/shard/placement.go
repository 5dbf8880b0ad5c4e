package shard

import (
	"encoding/json"
	"fmt"
	"sort"

	"shiftedmirror/internal/cluster"
	"shiftedmirror/internal/raid"
)

// DeviceState is one device slot's position in the placement state
// machine, modeled on the per-device replica-table state NBS keeps for
// mirrored disks:
//
//	online ──(content lost / backend unreachable)──▶ dead
//	dead ──(fresh backend attached)──▶ replacement-pending
//	replacement-pending ──(scheduler picks it)──▶ rebuilding
//	rebuilding ──(rebuild completes)──▶ online
//	rebuilding ──(rebuild fails)──▶ replacement-pending
//
// The states are what the rebuild scheduler keys on: only
// replacement-pending devices are eligible (a dead device has nowhere
// to rebuild to), and a group's priority grows with its count of
// non-online devices and their incompleteness.
type DeviceState int

const (
	// DeviceOnline: serving reads and writes, fully rebuilt.
	DeviceOnline DeviceState = iota
	// DeviceDead: content lost or backend unreachable; the group serves
	// the slot's data from replicas. No rebuild can start until a
	// replacement backend is attached.
	DeviceDead
	// DeviceReplacementPending: a fresh backend is attached and empty;
	// the slot is waiting for the rebuild scheduler.
	DeviceReplacementPending
	// DeviceRebuilding: a RebuildDisk is copying data onto the
	// replacement backend right now.
	DeviceRebuilding
)

var deviceStateNames = [...]string{"online", "dead", "replacement-pending", "rebuilding"}

func (s DeviceState) String() string {
	if s < 0 || int(s) >= len(deviceStateNames) {
		return fmt.Sprintf("DeviceState(%d)", int(s))
	}
	return deviceStateNames[s]
}

// MarshalJSON renders the state by name, so placement-table dumps read
// as "rebuilding" rather than an enum ordinal.
func (s DeviceState) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON parses the name form written by MarshalJSON.
func (s *DeviceState) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range deviceStateNames {
		if n == name {
			*s = DeviceState(i)
			return nil
		}
	}
	return fmt.Errorf("shard: unknown device state %q", name)
}

// Device is one backend slot of the placement table: which group and
// disk slot it serves, where it lives, its state, and how incomplete
// its content is (stripes not yet recovered — 0 for a healthy disk).
type Device struct {
	Group int         `json:"group"`
	Disk  string      `json:"disk"` // raid.DiskID string form, e.g. "data[0]"
	Addr  string      `json:"addr"`
	State DeviceState `json:"state"`
	// Replacement is the child volume's IsReplacement bit: true from the
	// moment a fresh backend is attached to the failed slot until its
	// rebuild completes — the window in which the slot's content cannot
	// be trusted beyond the watermark.
	Replacement bool `json:"replacement,omitempty"`
	// IncompleteStripes is stripes-not-yet-rebuilt: 0 when online,
	// Stripes right after a failure, shrinking as the watermark advances.
	IncompleteStripes int64 `json:"incomplete_stripes"`
}

// deviceOf derives one slot's placement entry from the child volume's
// state for that disk.
func deviceOf(gid, stripes int, d cluster.DiskState) Device {
	state := DeviceOnline
	switch {
	case d.Rebuilding:
		state = DeviceRebuilding
	case d.Failed && d.Replacement:
		state = DeviceReplacementPending
	case d.Failed || d.Dead:
		state = DeviceDead
	}
	return Device{
		Group: gid, Disk: d.ID.String(), Addr: d.Addr, State: state,
		Replacement:       d.Replacement,
		IncompleteStripes: int64(stripes) - d.Watermark,
	}
}

// DeviceRollup aggregates the table the way NBS's
// TMirroredDiskDevicesStat does: slot counts per state plus the worst
// incompleteness, so one glance tells how exposed the volume is.
type DeviceRollup struct {
	Online             int   `json:"online"`
	Dead               int   `json:"dead"`
	ReplacementPending int   `json:"replacement_pending"`
	Rebuilding         int   `json:"rebuilding"`
	Replacements       int   `json:"replacements"`
	MaxIncompleteness  int64 `json:"max_incompleteness"`
}

func (r *DeviceRollup) add(d Device) {
	switch d.State {
	case DeviceOnline:
		r.Online++
	case DeviceDead:
		r.Dead++
	case DeviceReplacementPending:
		r.ReplacementPending++
	case DeviceRebuilding:
		r.Rebuilding++
	}
	if d.Replacement {
		r.Replacements++
	}
	if d.IncompleteStripes > r.MaxIncompleteness {
		r.MaxIncompleteness = d.IncompleteStripes
	}
}

// eachDevice derives every slot's placement entry from the live
// children — one DiskStates read per group, in add order — and hands
// it to fn with the slot's disk id and watermark. The children are the
// only store of per-disk state; nothing here is cached.
func (s *ShardedVolume) eachDevice(fn func(d Device, id raid.DiskID, watermark int64)) {
	gs := s.pinAll()
	defer unpinAll(gs)
	for _, g := range gs {
		stripes := g.vol.Stripes()
		for _, st := range g.vol.DiskStates() {
			fn(deviceOf(g.id, stripes, st), st.ID, st.Watermark)
		}
	}
}

// Snapshot is the JSON-serializable view of the table: every device
// slot plus the rollup. smtool shard -table prints exactly this.
type Snapshot struct {
	Devices []Device     `json:"devices"`
	Rollup  DeviceRollup `json:"rollup"`
}

// Placement derives the replica/placement table from the children's
// state: every device slot, sorted by group then disk name, plus the
// rollup. Reading it refreshes the placement gauges.
func (s *ShardedVolume) Placement() Snapshot { return s.refreshRollups() }

// groupPressure summarizes one group's rebuild urgency.
type groupPressure struct {
	group      int
	incomplete int // devices not online
	pending    []raid.DiskID
	stripes    int64 // summed incompleteness
}

// pressure returns per-group urgency, keyed for the scheduler: how many
// devices are not online, which of them are actionable
// (replacement-pending, in disk order), and the summed incompleteness.
func (s *ShardedVolume) pressure() []groupPressure {
	var out []groupPressure
	s.eachDevice(func(d Device, id raid.DiskID, _ int64) {
		if len(out) == 0 || out[len(out)-1].group != d.Group {
			out = append(out, groupPressure{group: d.Group})
		}
		gp := &out[len(out)-1]
		if d.State != DeviceOnline {
			gp.incomplete++
			gp.stripes += d.IncompleteStripes
		}
		if d.State == DeviceReplacementPending {
			gp.pending = append(gp.pending, id)
		}
	})
	// Most incomplete devices first, then most missing stripes, then
	// lowest group id so the order is fully deterministic.
	sort.Slice(out, func(i, j int) bool {
		if out[i].incomplete != out[j].incomplete {
			return out[i].incomplete > out[j].incomplete
		}
		if out[i].stripes != out[j].stripes {
			return out[i].stripes > out[j].stripes
		}
		return out[i].group < out[j].group
	})
	return out
}
