// Package ingest is the live edge of the serving system: the wire codec for
// streaming sensor readings (NDJSON over HTTP POST or a line-delimited TCP
// socket), the out-of-order-tolerant windower that assembles observation
// windows from unordered arrival using watermarks with bounded lateness, and
// the listener plumbing that feeds decoded readings to a Consumer (the shard
// pool in internal/fleet).
package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
// cannot overflow into implementation-defined territory.
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
	// ReadStreamTraced). It rides alongside the payload, not on the wire:
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
func DecodeLine(line []byte) (Reading, error) {
	var w wireReading
	if err := json.Unmarshal(line, &w); err != nil {
		return Reading{}, fmt.Errorf("ingest: bad JSON: %w", err)
	}
	if math.IsNaN(w.TimeS) || math.IsInf(w.TimeS, 0) || w.TimeS < 0 || w.TimeS > maxSeconds {
		return Reading{}, fmt.Errorf("ingest: time_s %v outside [0, %g]", w.TimeS, maxSeconds)
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
			Time:   time.Duration(w.TimeS * float64(time.Second)),
			Values: vecmat.Vector(w.Values),
		},
	}
	if err := CheckFrameReading(r); err != nil {
		return Reading{}, err
	}
	return r, nil
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

// Consumer accepts decoded readings — in practice the fleet.Pool. Submit may
// block (backpressure) or drop (load shedding) per the consumer's policy;
// ErrDropped reports a shed reading, any other error a terminal condition.
type Consumer interface {
	Submit(Reading) error
}

// ErrDropped reports that a reading was shed by the consumer's overflow
// policy rather than enqueued.
var ErrDropped = errors.New("ingest: reading dropped (queue full)")
