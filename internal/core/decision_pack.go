package core

import (
	"encoding/binary"
	"math"
	"strconv"

	"sensorguard/internal/classify"
	"sensorguard/internal/obs"
	"sensorguard/internal/vecmat"
)

// decisionSlot is one DecisionRecord as the ring retains it: the scalar
// part inline, every variable-length part packed into data, which holds no
// pointers. An evicted slot packs the next record into the same data
// buffer, so recording allocates nothing once the ring has wrapped.
//
// data is, in order: the two attribute vectors, the sensor rows, the
// quarantined IDs and, when evidence is set, the row and column violations,
// the associations, the active hidden states and the divergence tests.
// Every slice is a uvarint count (0 for nil, len+1 otherwise) followed by
// its elements; integers are zigzag varints and float64s are their raw
// little-endian bits, so a record decodes exactly as it was recorded.
type decisionSlot struct {
	deployment string
	stats      obs.WindowStats
	traceID    string
	evidence   bool
	verdict    string
	confidence float64
	data       []byte
}

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

// pack stores rec in the slot, reusing the slot's data buffer when it is
// large enough. scratch is the caller's encoding buffer, returned grown so
// the next pack can reuse it; the slot keeps an exact-size copy.
func (s *decisionSlot) pack(rec *DecisionRecord, scratch []byte) []byte {
	s.deployment, s.stats, s.traceID = rec.Deployment, rec.WindowStats, rec.TraceID
	s.evidence, s.verdict, s.confidence = rec.Evidence != nil, "", 0

	b := appendSlice(scratch[:0], rec.ObservableAttrs, appendFloat)
	b = appendSlice(b, rec.CorrectAttrs, appendFloat)
	b = appendSlice(b, rec.Sensors, appendSensorRow)
	b = appendSlice(b, rec.Quarantined, appendInt)
	if ev := rec.Evidence; ev != nil {
		s.verdict, s.confidence = ev.Verdict, ev.Confidence
		b = appendSlice(b, ev.RowViolations, appendViolation)
		b = appendSlice(b, ev.ColViolations, appendViolation)
		b = appendSlice(b, ev.Associations, appendAssociation)
		b = appendSlice(b, ev.ActiveHidden, appendInt)
		b = appendSlice(b, ev.Divergence, appendDivergence)
	}
	if cap(s.data) < len(b) {
		s.data = make([]byte, len(b))
	}
	s.data = append(s.data[:0], b...)
	return b
}

// record decodes the slot back into the DecisionRecord it was packed from.
// The result shares nothing with the slot.
func (s *decisionSlot) record() DecisionRecord {
	rec := DecisionRecord{Deployment: s.deployment, WindowStats: s.stats, TraceID: s.traceID}
	r := &slotReader{b: s.data}
	rec.ObservableAttrs = readSlice[vecmat.Vector](r, readFloat)
	rec.CorrectAttrs = readSlice[vecmat.Vector](r, readFloat)
	rec.Sensors = readSlice[[]SensorDecision](r, readSensorRow)
	rec.Quarantined = readSlice[[]int](r, readInt)
	if s.evidence {
		rec.Evidence = &DecisionEvidence{
			Verdict:       s.verdict,
			Confidence:    s.confidence,
			RowViolations: readSlice[[]vecmat.OrthoViolation](r, readViolation),
			ColViolations: readSlice[[]vecmat.OrthoViolation](r, readViolation),
			Associations:  readSlice[[]classify.Association](r, readAssociation),
			ActiveHidden:  readSlice[[]int](r, readInt),
			Divergence:    readSlice[[]AttributeDivergence](r, readDivergence),
		}
	}
	if len(r.b) != 0 {
		panic("core: decision slot has trailing bytes")
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

func appendDivergence(b []byte, d AttributeDivergence) []byte {
	b = appendInt(appendInt(b, d.Hidden), d.Symbol)
	displaced := byte(0)
	if d.AllDisplaced {
		displaced = 1
	}
	return appendSlice(append(b, displaced), d.Delta, appendFloat)
}

// slotReader decodes a slot's data. The data was written by pack, so a
// short or malformed read is a bug, not an input error: it panics.
type slotReader struct{ b []byte }

func (r *slotReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		panic("core: corrupt decision slot")
	}
	r.b = r.b[n:]
	return v
}

func (r *slotReader) next(n int) []byte {
	if n > len(r.b) {
		panic("core: corrupt decision slot")
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func readSlice[S ~[]E, E any](r *slotReader, elem func(*slotReader) E) S {
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

func readInt(r *slotReader) int {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		panic("core: corrupt decision slot")
	}
	r.b = r.b[n:]
	return int(v)
}

func readFloat(r *slotReader) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r.next(8)))
}

func readSensorRow(r *slotReader) SensorDecision {
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

func readViolation(r *slotReader) vecmat.OrthoViolation {
	return vecmat.OrthoViolation{I: readInt(r), J: readInt(r), Dot: readFloat(r)}
}

func readAssociation(r *slotReader) classify.Association {
	return classify.Association{Hidden: readInt(r), Symbol: readInt(r), Mass: readFloat(r)}
}

func readDivergence(r *slotReader) AttributeDivergence {
	d := AttributeDivergence{Hidden: readInt(r), Symbol: readInt(r)}
	d.AllDisplaced = r.next(1)[0] != 0
	d.Delta = readSlice[vecmat.Vector](r, readFloat)
	return d
}
