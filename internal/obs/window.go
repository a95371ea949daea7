package obs

// StageLatency carries the per-stage wall-clock cost of one detector window,
// in nanoseconds. Stages mirror the Fig. 1 pipeline: Derive (per-sensor
// window means, Eq. 2-4 inputs), Classify (quarantine re-derivation, which
// runs the §3.4 classifier on long-open tracks), Map (observable/correct
// state identification), Alarm (alarm generation, filtering, track and M_CE
// updates), and HMM (M_CO/M_C/M_O updates plus model-state adaptation).
// Total is the sum of the stage latencies.
type StageLatency struct {
	DeriveNS   int64 `json:"derive_ns"`
	ClassifyNS int64 `json:"classify_ns"`
	MapNS      int64 `json:"map_ns"`
	AlarmNS    int64 `json:"alarm_ns"`
	HMMNS      int64 `json:"hmm_ns"`
	TotalNS    int64 `json:"total_ns"`
}

// WindowStats is the scalar part of one detector window: the counts the
// step computes anyway, filled in place at one site and read by every
// per-window consumer (metrics, the health tracker, stage spans, the step
// clock). The detector's DecisionRecord embeds it with its JSON fields
// inlined. The smaller counts are int32 because every retained decision
// record carries a copy.
type WindowStats struct {
	// Window is the window ordinal i.
	Window int `json:"window"`
	// Observable and Correct are o_i (Eq. 2) and c_i (Eq. 4).
	Observable int `json:"observable"`
	Correct    int `json:"correct"`
	// RawAlarms and FilteredAlarms count the sensors alarming this window
	// before and after the alarm filter.
	RawAlarms      int `json:"raw_alarms"`
	FilteredAlarms int `json:"filtered_alarms"`
	// Readings is the number of delivered messages this window; Reporting
	// is the number of distinct sensors they came from (set on skipped
	// windows too).
	Readings  int32 `json:"readings"`
	Reporting int32 `json:"reporting"`
	// TrackSymbols counts the symbols recorded on open tracks this window;
	// TrackBottoms counts how many were ⊥ (the sensor agreed with the
	// network).
	TrackSymbols int32 `json:"track_symbols"`
	TrackBottoms int32 `json:"track_bottoms"`
	// StateSpawns and StateMerges count structural model-state changes.
	StateSpawns int32 `json:"state_spawns,omitempty"`
	StateMerges int32 `json:"state_merges,omitempty"`
	// ModelStates and OpenTracks are the model-state and open-track counts
	// after this window.
	ModelStates int32 `json:"model_states"`
	OpenTracks  int32 `json:"open_tracks"`
	// Skipped reports a window dropped for lacking a sensor quorum; such
	// windows carry only Window, Readings, Reporting, the two counts
	// above, and the derive latency.
	Skipped bool `json:"skipped,omitempty"`
	// Latency is the per-stage wall-clock cost; zero when nothing attached
	// to the detector reads time.
	Latency StageLatency `json:"latency"`
}
