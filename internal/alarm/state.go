package alarm

import (
	"encoding/json"
	"fmt"
	"sort"
)

type kofnState struct {
	Kind    string           `json:"kind"`
	K       int              `json:"k"`
	N       int              `json:"n"`
	Sensors []kofnRingExport `json:"sensors,omitempty"`
}

type kofnRingExport struct {
	Sensor int    `json:"sensor"`
	Buf    []bool `json:"buf"`
	Next   int    `json:"next"`
	Count  int    `json:"count"`
	Fill   int    `json:"fill"`
}

// ExportState returns the filter's per-sensor rings as JSON, sorted by
// sensor ID, so a checkpoint can carry them.
func (f *KOfN) ExportState() (json.RawMessage, error) {
	st := kofnState{Kind: "k-of-n", K: f.k, N: f.n}
	for id, r := range f.history {
		st.Sensors = append(st.Sensors, kofnRingExport{
			Sensor: id,
			Buf:    append([]bool(nil), r.buf...),
			Next:   r.next,
			Count:  r.count,
			Fill:   r.fill,
		})
	}
	sort.Slice(st.Sensors, func(i, j int) bool { return st.Sensors[i].Sensor < st.Sensors[j].Sensor })
	return json.Marshal(st)
}

// RestoreState replaces the filter's rings with exported ones. The state
// must have been recorded under the same k and n: a ring of a different
// length means something else.
func (f *KOfN) RestoreState(raw json.RawMessage) error {
	var st kofnState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("alarm: k-of-n state: %w", err)
	}
	if st.Kind != "k-of-n" {
		return fmt.Errorf("alarm: filter state kind %q, want k-of-n", st.Kind)
	}
	if st.K != f.k || st.N != f.n {
		return fmt.Errorf("alarm: k-of-n state recorded with k=%d n=%d, filter has k=%d n=%d", st.K, st.N, f.k, f.n)
	}
	history := make(map[int]*ring, len(st.Sensors))
	for _, s := range st.Sensors {
		if _, dup := history[s.Sensor]; dup {
			return fmt.Errorf("alarm: k-of-n state lists sensor %d twice", s.Sensor)
		}
		if len(s.Buf) != f.n {
			return fmt.Errorf("alarm: k-of-n state for sensor %d has %d-slot ring, want %d", s.Sensor, len(s.Buf), f.n)
		}
		if s.Next < 0 || s.Next >= f.n || s.Fill < 0 || s.Fill > f.n {
			return fmt.Errorf("alarm: k-of-n state for sensor %d has cursor %d/fill %d outside ring", s.Sensor, s.Next, s.Fill)
		}
		count := 0
		for i := 0; i < s.Fill; i++ {
			// Valid entries occupy the fill-many slots ending just before
			// Next (the ring fills from slot 0, so this also covers the
			// not-yet-wrapped case).
			if s.Buf[((s.Next-1-i)%f.n+f.n)%f.n] {
				count++
			}
		}
		if count != s.Count {
			return fmt.Errorf("alarm: k-of-n state for sensor %d counts %d alarms, ring holds %d", s.Sensor, s.Count, count)
		}
		history[s.Sensor] = &ring{
			buf:   append([]bool(nil), s.Buf...),
			next:  s.Next,
			count: s.Count,
			fill:  s.Fill,
		}
	}
	f.history = history
	return nil
}

// StatsState is the serializable form of a Stats accumulator, sorted by
// sensor ID for deterministic output.
type StatsState struct {
	Sensors []SensorStatsState `json:"sensors,omitempty"`
}

// SensorStatsState is one sensor's alarm counters.
type SensorStatsState struct {
	Sensor   int `json:"sensor"`
	Steps    int `json:"steps"`
	Raw      int `json:"raw"`
	Filtered int `json:"filtered"`
}

// Export returns the accumulator's serializable state.
func (s *Stats) Export() StatsState {
	ids := make([]int, 0, len(s.steps))
	for id := range s.steps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var st StatsState
	for _, id := range ids {
		st.Sensors = append(st.Sensors, SensorStatsState{
			Sensor: id, Steps: s.steps[id], Raw: s.raw[id], Filtered: s.filtered[id],
		})
	}
	return st
}

// RestoreStats rebuilds a Stats accumulator from exported state.
func RestoreStats(st StatsState) (*Stats, error) {
	out := NewStats()
	for _, s := range st.Sensors {
		if _, dup := out.steps[s.Sensor]; dup {
			return nil, fmt.Errorf("alarm: stats state lists sensor %d twice", s.Sensor)
		}
		if s.Steps < 0 || s.Raw < 0 || s.Filtered < 0 || s.Raw > s.Steps || s.Filtered > s.Steps {
			return nil, fmt.Errorf("alarm: stats state for sensor %d is inconsistent (steps=%d raw=%d filtered=%d)", s.Sensor, s.Steps, s.Raw, s.Filtered)
		}
		out.steps[s.Sensor] = s.Steps
		out.raw[s.Sensor] = s.Raw
		out.filtered[s.Sensor] = s.Filtered
	}
	return out, nil
}
