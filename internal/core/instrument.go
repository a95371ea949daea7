package core

import (
	"sensorguard/internal/obs"
)

// instruments holds the detector's metric handles, resolved once at detector
// construction so Step never touches the registry map. A nil *instruments
// disables metrics entirely.
type instruments struct {
	windows        *obs.Counter
	skipped        *obs.Counter
	readings       *obs.Counter
	rawAlarms      *obs.Counter
	filteredAlarms *obs.Counter
	tracksOpened   *obs.Counter
	tracksClosed   *obs.Counter
	stateSpawns    *obs.Counter
	stateMerges    *obs.Counter

	modelStates *obs.Gauge
	openTracks  *obs.Gauge
	quarantined *obs.Gauge
	sensorsSeen *obs.Gauge

	stageDerive   *obs.Histogram
	stageClassify *obs.Histogram
	stageMap      *obs.Histogram
	stageAlarm    *obs.Histogram
	stageHMM      *obs.Histogram
	stepSeconds   *obs.Histogram
}

// newInstruments registers the detector's metrics in r (nil = no metrics).
func newInstruments(r *obs.Registry) *instruments {
	if r == nil {
		return nil
	}
	buckets := obs.LatencyBuckets()
	return &instruments{
		windows: r.Counter("sensorguard_windows_total",
			"Observation windows processed (skipped windows excluded)."),
		skipped: r.Counter("sensorguard_windows_skipped_total",
			"Windows dropped for lacking a sensor quorum."),
		readings: r.Counter("sensorguard_readings_total",
			"Sensor messages delivered inside processed windows."),
		rawAlarms: r.Counter("sensorguard_alarms_raw_total",
			"Per-sensor raw alarms (mapped state != correct state)."),
		filteredAlarms: r.Counter("sensorguard_alarms_filtered_total",
			"Per-sensor alarms surviving the alarm filter."),
		tracksOpened: r.Counter("sensorguard_tracks_opened_total",
			"Error/attack tracks opened."),
		tracksClosed: r.Counter("sensorguard_tracks_closed_total",
			"Error/attack tracks closed."),
		stateSpawns: r.Counter("sensorguard_state_spawns_total",
			"Model states spawned by the on-line clusterer."),
		stateMerges: r.Counter("sensorguard_state_merges_total",
			"Model-state merge events."),
		modelStates: r.Gauge("sensorguard_model_states",
			"Current model-state count."),
		openTracks: r.Gauge("sensorguard_open_tracks",
			"Error/attack tracks open right now."),
		quarantined: r.Gauge("sensorguard_quarantined_sensors",
			"Sensors excluded from the observable estimate."),
		sensorsSeen: r.Gauge("sensorguard_sensors_seen",
			"Distinct sensors observed so far."),
		stageDerive: r.Histogram("sensorguard_stage_derive_seconds",
			"Per-window latency of sensor-mean derivation (Eq. 2-4 inputs).", buckets),
		stageClassify: r.Histogram("sensorguard_stage_classify_seconds",
			"Per-window latency of quarantine re-derivation (the §3.4 classifier).", buckets),
		stageMap: r.Histogram("sensorguard_stage_map_seconds",
			"Per-window latency of observable/correct state identification.", buckets),
		stageAlarm: r.Histogram("sensorguard_stage_alarm_seconds",
			"Per-window latency of alarm filtering, tracks, and M_CE updates.", buckets),
		stageHMM: r.Histogram("sensorguard_stage_hmm_seconds",
			"Per-window latency of M_CO/M_C/M_O updates and state adaptation.", buckets),
		stepSeconds: r.Histogram("sensorguard_step_seconds",
			"End-to-end latency of one Detector.Step call.", buckets),
	}
}

// observe folds one completed (non-error) window into the metrics.
func (ins *instruments) observe(d *Detector, st *obs.WindowStats) {
	if st.Skipped {
		ins.skipped.Inc()
	} else {
		ins.windows.Inc()
		ins.readings.Add(uint64(st.Readings))
		ins.rawAlarms.Add(uint64(st.RawAlarms))
		ins.filteredAlarms.Add(uint64(st.FilteredAlarms))
		ins.tracksOpened.Add(uint64(len(d.scratch.opened)))
		ins.tracksClosed.Add(uint64(len(d.scratch.closed)))
		ins.stateSpawns.Add(uint64(st.StateSpawns))
		ins.stateMerges.Add(uint64(st.StateMerges))
	}
	ins.modelStates.Set(float64(st.ModelStates))
	ins.openTracks.Set(float64(st.OpenTracks))
	ins.quarantined.Set(float64(len(d.quarantined)))
	ins.sensorsSeen.Set(float64(len(d.seen)))
	lat := &st.Latency
	ins.stageDerive.Observe(float64(lat.DeriveNS) / 1e9)
	ins.stageClassify.Observe(float64(lat.ClassifyNS) / 1e9)
	ins.stageMap.Observe(float64(lat.MapNS) / 1e9)
	ins.stageAlarm.Observe(float64(lat.AlarmNS) / 1e9)
	ins.stageHMM.Observe(float64(lat.HMMNS) / 1e9)
	ins.stepSeconds.Observe(float64(lat.TotalNS) / 1e9)
}
