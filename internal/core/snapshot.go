package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"sensorguard/internal/alarm"
	"sensorguard/internal/cluster"
	"sensorguard/internal/hmm"
	"sensorguard/internal/markov"
	runstats "sensorguard/internal/stats"
	"sensorguard/internal/track"
)

// SnapshotVersion is the current snapshot schema version. Restore rejects
// snapshots from a different version rather than guessing at field meaning.
const SnapshotVersion = 1

// Snapshot is the complete serializable state of a Detector: every piece of
// accumulated on-line learning — cluster set, B^CO, per-sensor B^CE, the
// M_C/M_O chains, alarm filter evidence, tracks, quarantine, and error
// profiles. A detector restored from a Snapshot produces byte-identical
// reports to the original on the remaining stream (the equivalence the
// snapshot tests pin down), which is what makes fleet checkpoints sound.
//
// The snapshot deliberately excludes configuration: the caller re-supplies
// the Config at restore time (checkpointed state is only meaningful under
// the parameters that produced it, and Config holds non-serializable hooks).
type Snapshot struct {
	Version int `json:"version"`
	Dim     int `json:"dim"`

	Cluster cluster.SetState        `json:"cluster"`
	MCO     hmm.OnlineState         `json:"m_co"`
	MCE     map[int]hmm.OnlineState `json:"m_ce,omitempty"`
	MC      markov.ChainState       `json:"m_c"`
	MO      markov.ChainState       `json:"m_o"`

	// Filter is the k-of-n alarm filter's own serialized state (schema
	// owned by alarm.KOfN).
	Filter     json.RawMessage    `json:"filter"`
	AlarmStats alarm.StatsState   `json:"alarm_stats"`
	Tracks     track.ManagerState `json:"tracks"`

	Quarantined []int                                   `json:"quarantined,omitempty"`
	Seen        []int                                   `json:"seen,omitempty"`
	Profiles    map[int]map[int][]runstats.RunningState `json:"profiles,omitempty"`

	Steps   int `json:"steps"`
	Skipped int `json:"skipped"`
}

// Snapshot exports the detector's complete state. It fails only when the
// alarm filter is not the k-of-n filter: the sequential filters a
// FilterFactory can install are an offline ablation and are never
// checkpointed.
func (d *Detector) Snapshot() (*Snapshot, error) {
	kofn, ok := d.filter.(*alarm.KOfN)
	if !ok {
		return nil, fmt.Errorf("core: alarm filter %T does not support state export", d.filter)
	}
	filterState, err := kofn.ExportState()
	if err != nil {
		return nil, fmt.Errorf("core: export filter state: %w", err)
	}
	snap := &Snapshot{
		Version:    SnapshotVersion,
		Dim:        d.cfg.Dim,
		Cluster:    d.states.Export(),
		MCO:        d.mco.Export(),
		MC:         d.mc.Export(),
		MO:         d.mo.Export(),
		Filter:     filterState,
		AlarmStats: d.stats.Export(),
		Tracks:     d.tracks.Export(),
		Steps:      d.steps,
		Skipped:    d.skipped,
	}
	if len(d.mce) > 0 {
		snap.MCE = make(map[int]hmm.OnlineState, len(d.mce))
		for id, est := range d.mce {
			snap.MCE[id] = est.Export()
		}
	}
	snap.Quarantined = sortedKeys(d.quarantined)
	snap.Seen = sortedKeys(d.seen)
	if len(d.profiles) > 0 {
		snap.Profiles = make(map[int]map[int][]runstats.RunningState, len(d.profiles))
		for sensorID, byHidden := range d.profiles {
			m := make(map[int][]runstats.RunningState, len(byHidden))
			for hidden, rs := range byHidden {
				states := make([]runstats.RunningState, len(rs))
				for i, r := range rs {
					states[i] = r.Export()
				}
				m[hidden] = states
			}
			snap.Profiles[sensorID] = m
		}
	}
	return snap, nil
}

// RestoreDetector rebuilds a detector from a snapshot under the given
// configuration. The configuration must carry the same parameters the
// snapshot was taken under (learning factors, filter parameters, thresholds);
// InitialStates may be empty — the model states come from the snapshot. The
// snapshot is validated defensively at every layer, so a corrupted or
// truncated checkpoint yields an error, never a half-restored detector.
func RestoreDetector(cfg Config, snap *Snapshot) (*Detector, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	if err := cfg.validate(false); err != nil {
		return nil, err
	}
	if snap.Dim != cfg.Dim {
		return nil, fmt.Errorf("core: snapshot dimension %d, config wants %d", snap.Dim, cfg.Dim)
	}

	set, err := cluster.Restore(cluster.Config{
		Alpha:           cfg.Alpha,
		MergeDistance:   cfg.MergeDistance,
		SpawnDistance:   cfg.SpawnDistance,
		CaptureDistance: cfg.CaptureDistance,
		MaxStates:       cfg.MaxStates,
	}, snap.Cluster)
	if err != nil {
		return nil, err
	}
	mco, err := hmm.RestoreOnline(cfg.Beta, cfg.Gamma, snap.MCO)
	if err != nil {
		return nil, fmt.Errorf("core: restore M_CO: %w", err)
	}
	mce := make(map[int]*hmm.Online, len(snap.MCE))
	for id, st := range snap.MCE {
		est, err := hmm.RestoreOnline(cfg.Beta, cfg.Gamma, st)
		if err != nil {
			return nil, fmt.Errorf("core: restore M_CE sensor %d: %w", id, err)
		}
		mce[id] = est
	}
	mc, err := markov.RestoreChain(cfg.Beta, snap.MC)
	if err != nil {
		return nil, fmt.Errorf("core: restore M_C: %w", err)
	}
	mo, err := markov.RestoreChain(cfg.Beta, snap.MO)
	if err != nil {
		return nil, fmt.Errorf("core: restore M_O: %w", err)
	}

	d, err := newShell(cfg)
	if err != nil {
		return nil, err
	}
	kofn, ok := d.filter.(*alarm.KOfN)
	if !ok {
		return nil, fmt.Errorf("core: alarm filter %T does not support state restore", d.filter)
	}
	if err := kofn.RestoreState(snap.Filter); err != nil {
		return nil, fmt.Errorf("core: restore filter state: %w", err)
	}

	stats, err := alarm.RestoreStats(snap.AlarmStats)
	if err != nil {
		return nil, err
	}
	tracks, err := track.Restore(snap.Tracks)
	if err != nil {
		return nil, err
	}

	profiles := make(map[int]map[int][]runstats.Running, len(snap.Profiles))
	for sensorID, byHidden := range snap.Profiles {
		m := make(map[int][]runstats.Running, len(byHidden))
		for hidden, states := range byHidden {
			if len(states) != cfg.Dim {
				return nil, fmt.Errorf("core: profile for sensor %d state %d has %d attributes, want %d",
					sensorID, hidden, len(states), cfg.Dim)
			}
			rs := make([]runstats.Running, len(states))
			for i, st := range states {
				rs[i] = st.Restore()
			}
			m[hidden] = rs
		}
		profiles[sensorID] = m
	}

	d.states, d.mco, d.mce, d.mc, d.mo = set, mco, mce, mc, mo
	d.stats, d.tracks = stats, tracks
	d.quarantined = boolSet(snap.Quarantined)
	d.seen = boolSet(snap.Seen)
	d.profiles = profiles
	d.steps, d.skipped = snap.Steps, snap.Skipped
	return d, nil
}

func sortedKeys(set map[int]bool) []int {
	if len(set) == 0 {
		return nil
	}
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

func boolSet(ids []int) map[int]bool {
	out := make(map[int]bool, len(ids))
	for _, id := range ids {
		out[id] = true
	}
	return out
}
