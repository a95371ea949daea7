// Package ingest is the live edge of the serving system: the wire codec for
// streaming sensor readings (NDJSON over HTTP POST or a line-delimited TCP
// socket), the out-of-order-tolerant windower that assembles observation
// windows from unordered arrival using watermarks with bounded lateness, and
// the listener plumbing that feeds decoded readings to a Consumer (the shard
// pool in internal/fleet).
package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// DefaultDeployment names readings that arrive without an explicit
// deployment key.
const DefaultDeployment = "default"

// maxSeconds bounds wire timestamps to what time.Duration can hold
// (~292 years of deployment uptime) so the seconds→Duration conversion
// cannot overflow into implementation-defined territory. As a float64 it
// converts to 2^63 ns, one past the largest Duration, so DecodeLine bounds
// the nanosecond product instead and the range is [0, maxSeconds).
const maxSeconds = float64(math.MaxInt64) / float64(time.Second)

// Reading is one wire message: a sensor reading tagged with the deployment
// it belongs to. Deployment is the shard key — every reading of a deployment
// is processed by the same detector worker, in arrival order.
type Reading struct {
	// Deployment identifies the sensor network the reading belongs to.
	Deployment string
	// Seq is an optional producer-assigned sequence number, strictly
	// increasing per deployment (0 = unassigned). Consumers that persist
	// state use it to deduplicate retransmissions: a producer that never
	// got an ACK can safely resend a batch, and readings with Seq at or
	// below the deployment's high-water mark are dropped as duplicates.
	Seq uint64
	// Trace is the span context stamped on this reading by a traced
	// listener (one reading per sampled batch carries it — see
	// StreamOptions). It rides alongside the payload, not on the wire:
	// batch headers carry trace context between processes.
	Trace obs.SpanContext
	// Reading is the ⟨t, p⟩ message itself.
	sensor.Reading
}

// wireReading is the NDJSON schema (see docs/SERVING.md):
//
//	{"deployment":"gdi","sensor":3,"time_s":300.0,"values":[12.5,94.0]}
type wireReading struct {
	Deployment string    `json:"deployment,omitempty"`
	Seq        uint64    `json:"seq,omitempty"`
	Sensor     int       `json:"sensor"`
	TimeS      float64   `json:"time_s"`
	Values     []float64 `json:"values"`
}

// DecodeLine parses one NDJSON line into a Reading, validating that the
// timestamp is finite, non-negative, and representable, and that the reading
// passes CheckFrameReading — the binary codec's bounds, so both codecs accept
// the same readings: every attribute value finite (NaN/Inf would silently
// poison the detector's running means), 1 to 4096 values, a deployment key
// of at most 4096 bytes.
//
// A line in the canonical wireReading form (what EncodeLine and common
// producers emit) is decoded by scanLineReuse; every other line, including
// every malformed one, goes to encoding/json, which defines the accepted
// grammar.
func DecodeLine(line []byte) (Reading, error) {
	return decodeLine(line, "")
}

// decodeLine is DecodeLine given the deployment key of the stream's
// previous line: a line naming the same deployment shares that string
// instead of allocating its own.
func decodeLine(line []byte, prevDeployment string) (Reading, error) {
	w, ok := scanLineReuse(line, prevDeployment)
	if !ok {
		// A fresh target of its own, so only this path pays for it escaping.
		slow := new(wireReading)
		if err := json.Unmarshal(line, slow); err != nil {
			return Reading{}, fmt.Errorf("ingest: bad JSON: %w", err)
		}
		w = *slow
	}
	ns := w.TimeS * float64(time.Second)
	if math.IsNaN(w.TimeS) || w.TimeS < 0 || ns >= 1<<63 {
		return Reading{}, fmt.Errorf("ingest: time_s %v outside [0, %g)", w.TimeS, maxSeconds)
	}
	dep := w.Deployment
	if dep == "" {
		dep = DefaultDeployment
	}
	r := Reading{
		Deployment: dep,
		Seq:        w.Seq,
		Reading: sensor.Reading{
			Sensor: w.Sensor,
			Time:   time.Duration(ns),
			Values: vecmat.Vector(w.Values),
		},
	}
	if err := CheckFrameReading(&r); err != nil {
		return Reading{}, err
	}
	return r, nil
}

// scanLineReuse is DecodeLine's fast path. It claims (ok) only a line that
// encoding/json would decode into exactly the same wireReading: one object
// whose keys are drawn from deployment, seq, sensor, time_s and values, each
// at most once, with a deployment of printable ASCII free of '"' and '\\',
// numbers in the strict JSON grammar converted as encoding/json converts
// them, and JSON whitespace between tokens. Anything else — escapes,
// non-ASCII, null, duplicate, unknown or case-variant keys, trailing bytes,
// out-of-range numbers — is left to encoding/json, so the scanner never
// decides a rejection and cannot accept what encoding/json refuses.
//
// Each line gets its own Values array of exactly its length: the windower
// holds a reading's values until its window closes, so values packed into a
// slab shared across lines would pin the whole slab while any one reading in
// it is live (measured on ndjson-ingest: +24% SUT heap). A deployment equal
// to prevDeployment is returned as that string, not a new copy.
func scanLineReuse(p []byte, prevDeployment string) (w wireReading, ok bool) {
	const (
		hasDeployment = 1 << iota
		hasSeq
		hasSensor
		hasTime
		hasValues
	)
	var seen uint8
	i := skipSpace(p, 0)
	if i == len(p) || p[i] != '{' {
		return wireReading{}, false
	}
	for {
		i = skipSpace(p, i+1)
		if i == len(p) || p[i] != '"' {
			return wireReading{}, false
		}
		n := bytes.IndexByte(p[i+1:], '"')
		if n < 0 {
			return wireReading{}, false
		}
		key := p[i+1 : i+1+n]
		i = skipSpace(p, i+n+2)
		if i == len(p) || p[i] != ':' {
			return wireReading{}, false
		}
		i = skipSpace(p, i+1)
		var bit uint8
		switch string(key) {
		case "deployment":
			bit = hasDeployment
			w.Deployment, i, ok = scanASCIIString(p, i, prevDeployment)
		case "seq":
			bit = hasSeq
			var s []byte
			if s, i, ok = scanNumber(p, i); ok {
				var err error
				w.Seq, err = strconv.ParseUint(string(s), 10, 64)
				ok = err == nil
			}
		case "sensor":
			bit = hasSensor
			var s []byte
			if s, i, ok = scanNumber(p, i); ok {
				v, err := strconv.ParseInt(string(s), 10, strconv.IntSize)
				w.Sensor, ok = int(v), err == nil
			}
		case "time_s":
			bit = hasTime
			w.TimeS, i, ok = scanFloat(p, i)
		case "values":
			bit = hasValues
			w.Values, i, ok = scanFloats(p, i)
		}
		if bit == 0 || !ok || seen&bit != 0 {
			return wireReading{}, false
		}
		seen |= bit
		i = skipSpace(p, i)
		if i == len(p) {
			return wireReading{}, false
		}
		if p[i] == '}' {
			break
		}
		if p[i] != ',' {
			return wireReading{}, false
		}
	}
	if skipSpace(p, i+1) != len(p) {
		return wireReading{}, false
	}
	return w, true
}

// skipSpace returns the index of the first non-whitespace byte of p at or
// after i (len(p) if none), whitespace being JSON's four bytes.
func skipSpace(p []byte, i int) int {
	for i < len(p) {
		switch p[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// scanASCIIString reads the JSON string starting at p[i] when every byte
// in it is printable ASCII other than '\\', so it needs no unescaping or
// UTF-8 handling; it returns the string and the index after its closing
// quote. A string with the bytes of prev is returned as prev itself, so
// the common case of a stream from one deployment allocates nothing here.
func scanASCIIString(p []byte, i int, prev string) (string, int, bool) {
	if i == len(p) || p[i] != '"' {
		return "", i, false
	}
	for j := i + 1; j < len(p); j++ {
		switch c := p[j]; {
		case c == '"':
			if s := p[i+1 : j]; string(s) != prev {
				prev = string(s)
			}
			return prev, j + 1, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return "", j, false
		}
	}
	return "", len(p), false
}

// scanNumber returns the JSON number token starting at p[i] and the index
// after it, checking the strict grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — strconv alone would also
// take 01, +5, .5, 5., inf, NaN and hex floats, which JSON refuses.
func scanNumber(p []byte, i int) ([]byte, int, bool) {
	start := i
	if i < len(p) && p[i] == '-' {
		i++
	}
	switch {
	case i == len(p):
		return nil, i, false
	case p[i] == '0':
		i++
	case '1' <= p[i] && p[i] <= '9':
		i = skipDigits(p, i+1)
	default:
		return nil, i, false
	}
	if i < len(p) && p[i] == '.' {
		j := skipDigits(p, i+1)
		if j == i+1 {
			return nil, j, false
		}
		i = j
	}
	if i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		i++
		if i < len(p) && (p[i] == '+' || p[i] == '-') {
			i++
		}
		j := skipDigits(p, i)
		if j == i {
			return nil, j, false
		}
		i = j
	}
	return p[start:i], i, true
}

func skipDigits(p []byte, i int) int {
	for i < len(p) && '0' <= p[i] && p[i] <= '9' {
		i++
	}
	return i
}

// scanFloats reads the JSON array of numbers starting at p[i] into a new
// slice of exactly its length, found by counting the commas before the
// first ']' (a number has neither, so a well-formed array's count is exact
// and any other input fails the element-by-element scan).
func scanFloats(p []byte, i int) ([]float64, int, bool) {
	if i == len(p) || p[i] != '[' {
		return nil, i, false
	}
	i++
	end := bytes.IndexByte(p[i:], ']')
	if end < 0 {
		return nil, i, false
	}
	n := 0
	if skipSpace(p, i) < i+end {
		n = bytes.Count(p[i:i+end], []byte{','}) + 1
	}
	if n > maxFrameDim {
		return nil, i, false // rejected either way: no allocation for it here
	}
	vals := make([]float64, n)
	for k := range vals {
		var ok bool
		if vals[k], i, ok = scanFloat(p, skipSpace(p, i)); !ok {
			return nil, i, false
		}
		i = skipSpace(p, i)
		if k < n-1 {
			if i == len(p) || p[i] != ',' {
				return nil, i, false
			}
			i++
		}
	}
	i = skipSpace(p, i)
	if i == len(p) || p[i] != ']' {
		return nil, i, false
	}
	return vals, i + 1, true
}

// EncodeLine renders a Reading as one NDJSON line (no trailing newline).
func EncodeLine(r Reading) ([]byte, error) {
	return json.Marshal(wireReading{
		Deployment: r.Deployment,
		Seq:        r.Seq,
		Sensor:     r.Sensor,
		TimeS:      r.Time.Seconds(),
		Values:     r.Values,
	})
}

// Consumer accepts decoded readings in batches — in practice the
// fleet.Pool. Every stream reader submits through it: the binary path one
// decoded frame per call, the NDJSON path up to ndjsonBatch lines.
// SubmitBatch may block (backpressure) or shed readings (load shedding) per
// the consumer's policy. accepted+dropped covers the prefix actually
// processed; a non-nil error is terminal and stops the stream.
//
// Ownership: rs, the slice and its Reading structs, is valid only during
// SubmitBatch — the readers reuse it for the next batch — so a consumer
// copies what it keeps. Each reading's Values slice is the consumer's to
// keep forever: no reader ever reuses or rewrites value storage.
type Consumer interface {
	SubmitBatch(rs []Reading) (accepted, dropped int, err error)
}

// ErrDropped reports that a reading was shed by the consumer's overflow
// policy rather than enqueued.
var ErrDropped = errors.New("ingest: reading dropped (queue full)")
