package core

import (
	"encoding/binary"
	"math"
	"strconv"

	"sensorguard/internal/classify"
	"sensorguard/internal/obs"
	"sensorguard/internal/vecmat"
)

// A retained DecisionRecord packs into one pointer-free byte string, the
// form DecisionRing keeps it in (see DecisionRing). It holds, in order:
//
//   - the deployment: 0 when it is the ring's own (see appendRecord), else
//     its length + 1 and its bytes;
//   - the trace ID, as a length and its bytes;
//   - one flags byte: Skipped, and whether Evidence is set;
//   - the window stats' counts, then the stage latencies with Total stored
//     as its difference from the stages' sum (0 when it is their sum);
//   - when evidence is set, the verdict (see appendVerdict) and the
//     confidence;
//   - the two attribute vectors, the sensor rows, the quarantined IDs and,
//     when evidence is set, the row and column violations, the
//     associations, the active hidden states and the divergence tests.
//
// Every slice is a uvarint count (0 for nil, len+1 otherwise) followed by
// its elements; integers are zigzag varints and float64s are their raw
// little-endian bits (a divergence delta of positive zeros stores only its
// length, see appendDivergence), so a record decodes exactly as it was
// recorded.
const (
	recordSkipped = 1 << iota
	recordEvidence
)

// A sensor row packs into its ID, its nearest state, and one flags byte
// carrying the five booleans and the symbol kind; a state-ID symbol follows
// as a varint, any other text as a length-prefixed string.
const (
	rowRawAlarm = 1 << iota
	rowFilteredAlarm
	rowTrackOpen
	rowTrackOpened
	rowTrackClosed

	rowSymbolShift = iota
)

const (
	symbolNone   = iota // ""
	symbolBottom        // "⊥"
	symbolState         // strconv.Itoa of a state ID
	symbolText          // anything else, stored verbatim
)

// appendRecord appends rec's packed form to b. A record whose deployment is
// deployment, the ring's own, stores it as one 0 byte.
func appendRecord(b []byte, rec *DecisionRecord, deployment string) []byte {
	if rec.Deployment == deployment {
		b = append(b, 0)
	} else {
		b = append(binary.AppendUvarint(b, uint64(len(rec.Deployment))+1), rec.Deployment...)
	}
	b = append(binary.AppendUvarint(b, uint64(len(rec.TraceID))), rec.TraceID...)
	st, ev := &rec.WindowStats, rec.Evidence
	b = append(b, flag(st.Skipped, recordSkipped)|flag(ev != nil, recordEvidence))
	for _, v := range [...]int64{
		int64(st.Window), int64(st.Observable), int64(st.Correct), int64(st.RawAlarms), int64(st.FilteredAlarms),
		int64(st.Readings), int64(st.Reporting), int64(st.TrackSymbols), int64(st.TrackBottoms),
		int64(st.StateSpawns), int64(st.StateMerges), int64(st.ModelStates), int64(st.OpenTracks),
	} {
		b = binary.AppendVarint(b, v)
	}
	lat := &st.Latency
	for _, v := range [...]int64{lat.DeriveNS, lat.ClassifyNS, lat.MapNS, lat.AlarmNS, lat.HMMNS, lat.TotalNS - stageSum(lat)} {
		b = binary.AppendVarint(b, v)
	}
	if ev != nil {
		b = appendFloat(appendVerdict(b, ev.Verdict), ev.Confidence)
	}
	b = appendSlice(b, rec.ObservableAttrs, appendFloat)
	b = appendSlice(b, rec.CorrectAttrs, appendFloat)
	b = appendSlice(b, rec.Sensors, appendSensorRow)
	b = appendSlice(b, rec.Quarantined, appendInt)
	if ev != nil {
		b = appendSlice(b, ev.RowViolations, appendViolation)
		b = appendSlice(b, ev.ColViolations, appendViolation)
		b = appendSlice(b, ev.Associations, appendAssociation)
		b = appendSlice(b, ev.ActiveHidden, appendInt)
		b = appendSlice(b, ev.Divergence, appendDivergence)
	}
	return b
}

// stageSum is the sum of the stage latencies, which Total normally equals.
// Wrapping addition makes Total − stageSum + stageSum exact whatever the
// values.
func stageSum(lat *obs.StageLatency) int64 {
	return lat.DeriveNS + lat.ClassifyNS + lat.MapNS + lat.AlarmNS + lat.HMMNS
}

// readRecord decodes one record appendRecord packed with the same
// deployment. The result shares nothing with b.
func readRecord(b []byte, deployment string) DecisionRecord {
	r := &recordReader{b: b}
	rec := DecisionRecord{Deployment: deployment}
	if n := r.uvarint(); n > 0 {
		rec.Deployment = string(r.next(int(n - 1)))
	}
	rec.TraceID = string(r.next(int(r.uvarint())))
	flags := r.next(1)[0]
	st := &rec.WindowStats
	st.Skipped = flags&recordSkipped != 0
	st.Window, st.Observable, st.Correct, st.RawAlarms, st.FilteredAlarms = readInt(r), readInt(r), readInt(r), readInt(r), readInt(r)
	st.Readings, st.Reporting, st.TrackSymbols, st.TrackBottoms = readInt32(r), readInt32(r), readInt32(r), readInt32(r)
	st.StateSpawns, st.StateMerges, st.ModelStates, st.OpenTracks = readInt32(r), readInt32(r), readInt32(r), readInt32(r)
	lat := &st.Latency
	lat.DeriveNS, lat.ClassifyNS, lat.MapNS, lat.AlarmNS, lat.HMMNS = readInt64(r), readInt64(r), readInt64(r), readInt64(r), readInt64(r)
	lat.TotalNS = readInt64(r) + stageSum(lat)
	var ev *DecisionEvidence
	if flags&recordEvidence != 0 {
		ev = &DecisionEvidence{Verdict: readVerdict(r), Confidence: readFloat(r)}
	}
	rec.ObservableAttrs = readSlice[vecmat.Vector](r, readFloat)
	rec.CorrectAttrs = readSlice[vecmat.Vector](r, readFloat)
	rec.Sensors = readSlice[[]SensorDecision](r, readSensorRow)
	rec.Quarantined = readSlice[[]int](r, readInt)
	if ev != nil {
		ev.RowViolations = readSlice[[]vecmat.OrthoViolation](r, readViolation)
		ev.ColViolations = readSlice[[]vecmat.OrthoViolation](r, readViolation)
		ev.Associations = readSlice[[]classify.Association](r, readAssociation)
		ev.ActiveHidden = readSlice[[]int](r, readInt)
		ev.Divergence = readSlice[[]AttributeDivergence](r, readDivergence)
		rec.Evidence = ev
	}
	if len(r.b) != 0 {
		panic("core: decision record has trailing bytes")
	}
	return rec
}

func appendSlice[E any](b []byte, s []E, elem func([]byte, E) []byte) []byte {
	if s == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(s))+1)
	for _, e := range s {
		b = elem(b, e)
	}
	return b
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendSensorRow(b []byte, sd SensorDecision) []byte {
	b = appendInt(b, sd.Sensor)
	b = appendInt(b, sd.Nearest)
	flags := flag(sd.RawAlarm, rowRawAlarm) | flag(sd.FilteredAlarm, rowFilteredAlarm) |
		flag(sd.TrackOpen, rowTrackOpen) | flag(sd.TrackOpened, rowTrackOpened) |
		flag(sd.TrackClosed, rowTrackClosed)
	switch sd.Symbol {
	case "":
		return append(b, flags|symbolNone<<rowSymbolShift)
	case "⊥":
		return append(b, flags|symbolBottom<<rowSymbolShift)
	}
	if id, ok := stateSymbolID(sd.Symbol); ok {
		return appendInt(append(b, flags|symbolState<<rowSymbolShift), id)
	}
	b = binary.AppendUvarint(append(b, flags|symbolText<<rowSymbolShift), uint64(len(sd.Symbol)))
	return append(b, sd.Symbol...)
}

// appendVerdict stores a classify.Kind name as the kind's number, any other
// text as 0, its length and its bytes.
func appendVerdict(b []byte, verdict string) []byte {
	for k := classify.KindNone; k <= classify.KindMixed; k++ {
		if k.String() == verdict {
			return binary.AppendUvarint(b, uint64(k))
		}
	}
	return append(binary.AppendUvarint(append(b, 0), uint64(len(verdict))), verdict...)
}

func flag(set bool, bit byte) byte {
	if set {
		return bit
	}
	return 0
}

// stateSymbolID reports whether s is exactly strconv.Itoa of some state ID,
// the form decide writes, and returns the ID.
func stateSymbolID(s string) (int, bool) {
	id, err := strconv.Atoi(s)
	if err != nil {
		return 0, false
	}
	var buf [20]byte
	return id, string(strconv.AppendInt(buf[:0], int64(id), 10)) == s
}

func appendViolation(b []byte, v vecmat.OrthoViolation) []byte {
	return appendFloat(appendInt(appendInt(b, v.I), v.J), v.Dot)
}

func appendAssociation(b []byte, a classify.Association) []byte {
	return appendFloat(appendInt(appendInt(b, a.Hidden), a.Symbol), a.Mass)
}

// A divergence test packs into its two state IDs, one flags byte, and its
// delta. A hidden state associated with itself has a delta of positive
// zeros, which packs as its length alone.
const (
	divergenceDisplaced = 1 << iota
	divergenceZeroDelta
)

func appendDivergence(b []byte, d AttributeDivergence) []byte {
	b = appendInt(appendInt(b, d.Hidden), d.Symbol)
	flags := flag(d.AllDisplaced, divergenceDisplaced)
	zero := d.Delta != nil
	for _, x := range d.Delta {
		zero = zero && math.Float64bits(x) == 0
	}
	if zero {
		return binary.AppendUvarint(append(b, flags|divergenceZeroDelta), uint64(len(d.Delta)))
	}
	return appendSlice(append(b, flags), d.Delta, appendFloat)
}

// recordReader decodes a packed record. The bytes were written by
// appendRecord, so a short or malformed read is a bug, not an input error:
// it panics.
type recordReader struct{ b []byte }

func (r *recordReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		panic("core: corrupt decision record")
	}
	r.b = r.b[n:]
	return v
}

func (r *recordReader) next(n int) []byte {
	if n > len(r.b) {
		panic("core: corrupt decision record")
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func readSlice[S ~[]E, E any](r *recordReader, elem func(*recordReader) E) S {
	n := r.uvarint()
	if n == 0 {
		return nil
	}
	out := make(S, n-1)
	for i := range out {
		out[i] = elem(r)
	}
	return out
}

func readInt(r *recordReader) int { return int(readInt64(r)) }

func readInt32(r *recordReader) int32 { return int32(readInt64(r)) }

func readInt64(r *recordReader) int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		panic("core: corrupt decision record")
	}
	r.b = r.b[n:]
	return v
}

func readFloat(r *recordReader) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r.next(8)))
}

func readSensorRow(r *recordReader) SensorDecision {
	sd := SensorDecision{Sensor: readInt(r), Nearest: readInt(r)}
	flags := r.next(1)[0]
	sd.RawAlarm = flags&rowRawAlarm != 0
	sd.FilteredAlarm = flags&rowFilteredAlarm != 0
	sd.TrackOpen = flags&rowTrackOpen != 0
	sd.TrackOpened = flags&rowTrackOpened != 0
	sd.TrackClosed = flags&rowTrackClosed != 0
	switch flags >> rowSymbolShift {
	case symbolBottom:
		sd.Symbol = "⊥"
	case symbolState:
		sd.Symbol = strconv.Itoa(readInt(r))
	case symbolText:
		sd.Symbol = string(r.next(int(r.uvarint())))
	}
	return sd
}

func readVerdict(r *recordReader) string {
	if k := r.uvarint(); k != 0 {
		return classify.Kind(k).String()
	}
	return string(r.next(int(r.uvarint())))
}

func readViolation(r *recordReader) vecmat.OrthoViolation {
	return vecmat.OrthoViolation{I: readInt(r), J: readInt(r), Dot: readFloat(r)}
}

func readAssociation(r *recordReader) classify.Association {
	return classify.Association{Hidden: readInt(r), Symbol: readInt(r), Mass: readFloat(r)}
}

func readDivergence(r *recordReader) AttributeDivergence {
	d := AttributeDivergence{Hidden: readInt(r), Symbol: readInt(r)}
	flags := r.next(1)[0]
	d.AllDisplaced = flags&divergenceDisplaced != 0
	if flags&divergenceZeroDelta != 0 {
		d.Delta = make(vecmat.Vector, r.uvarint())
	} else {
		d.Delta = readSlice[vecmat.Vector](r, readFloat)
	}
	return d
}
