// Package gdi handles Great-Duck-Island-style data traces: the schema of the
// mote messages the paper's evaluation consumes (per-sensor temperature and
// humidity samples every 5 minutes), a CSV codec so real traces can be
// loaded, and a synthetic generator calibrated to the structure the paper
// reports for July 2003 (see DESIGN.md §2 for the substitution argument).
package gdi

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"sensorguard/internal/env"
	"sensorguard/internal/network"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// Attributes are the measured environment attributes, in column order.
var Attributes = []string{"temperature", "humidity"}

// Attributes3 adds the third attribute the GDI motes measure.
var Attributes3 = []string{"temperature", "humidity", "pressure"}

// Ranges are the admissible intervals of the GDI attributes: temperature in
// [-40, 60] °C and relative humidity in [0, 100] %.
func Ranges() []sensor.Range {
	return []sensor.Range{{Lo: -40, Hi: 60}, {Lo: 0, Hi: 100}}
}

// Ranges3 adds the admissible barometric-pressure interval in hPa.
func Ranges3() []sensor.Range {
	return append(Ranges(), sensor.Range{Lo: 950, Hi: 1070})
}

// Trace is a time-ordered sequence of sensor messages.
type Trace struct {
	// Attributes names the vector components of every reading.
	Attributes []string
	// Readings are the messages, ordered by (Time, Sensor).
	Readings []sensor.Reading
}

// Sensors returns the distinct sensor IDs present in the trace, in first-
// appearance order.
func (tr Trace) Sensors() []int {
	seen := make(map[int]bool)
	var out []int
	for _, r := range tr.Readings {
		if !seen[r.Sensor] {
			seen[r.Sensor] = true
			out = append(out, r.Sensor)
		}
	}
	return out
}

// Duration returns the time span covered by the trace.
func (tr Trace) Duration() time.Duration {
	if len(tr.Readings) == 0 {
		return 0
	}
	return tr.Readings[len(tr.Readings)-1].Time - tr.Readings[0].Time
}

// FilterSensor returns the readings of a single sensor, in order.
func (tr Trace) FilterSensor(id int) []sensor.Reading {
	var out []sensor.Reading
	for _, r := range tr.Readings {
		if r.Sensor == id {
			out = append(out, r)
		}
	}
	return out
}

// WriteCSV encodes the trace with header
// time_seconds,sensor,<attr1>,<attr2>,...
func WriteCSV(w io.Writer, tr Trace) error {
	cw := csv.NewWriter(w)
	header := append([]string{"time_seconds", "sensor"}, tr.Attributes...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("gdi: write header: %w", err)
	}
	row := make([]string, len(header))
	for _, r := range tr.Readings {
		if len(r.Values) != len(tr.Attributes) {
			return fmt.Errorf("gdi: reading with %d values for %d attributes", len(r.Values), len(tr.Attributes))
		}
		row[0] = strconv.FormatFloat(r.Time.Seconds(), 'f', 3, 64)
		row[1] = strconv.Itoa(r.Sensor)
		for i, v := range r.Values {
			row[2+i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("gdi: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// maxSeconds bounds timestamps to what time.Duration can hold. As a
// float64 it converts to 2^63 ns, one past the largest Duration, so ReadCSV
// bounds the nanosecond product instead and the range is [0, maxSeconds).
const maxSeconds = float64(math.MaxInt64) / float64(time.Second)

// ReadCSV decodes a trace written by WriteCSV (or an external trace in the
// same schema). Rows with unparsable fields, non-finite or out-of-range
// timestamps, or non-finite values are rejected with their line number.
func ReadCSV(r io.Reader) (Trace, error) {
	cr := csv.NewReader(r)
	// Do the field-count check ourselves: csv.Reader's ErrFieldCount hides
	// the expected width, and our message carries both counts and the line.
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return Trace{}, fmt.Errorf("gdi: read header: %w", err)
	}
	if len(header) < 3 || header[0] != "time_seconds" || header[1] != "sensor" {
		return Trace{}, errors.New("gdi: header must start with time_seconds,sensor and one or more attributes")
	}
	tr := Trace{Attributes: append([]string(nil), header[2:]...)}
	line := 1
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		line++
		if err != nil {
			return Trace{}, fmt.Errorf("gdi: line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return Trace{}, fmt.Errorf("gdi: line %d: %d fields, want %d", line, len(rec), len(header))
		}
		secs, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return Trace{}, fmt.Errorf("gdi: line %d: bad time %q", line, rec[0])
		}
		// Converting an out-of-range float to time.Duration is
		// implementation-defined, so bound the timestamp before converting.
		ns := secs * float64(time.Second)
		if math.IsNaN(secs) || secs < 0 || ns >= 1<<63 {
			return Trace{}, fmt.Errorf("gdi: line %d: time %q outside [0, %g)", line, rec[0], maxSeconds)
		}
		id, err := strconv.Atoi(rec[1])
		if err != nil {
			return Trace{}, fmt.Errorf("gdi: line %d: bad sensor %q", line, rec[1])
		}
		values := make(vecmat.Vector, len(tr.Attributes))
		for i := range values {
			v, err := strconv.ParseFloat(rec[2+i], 64)
			if err != nil {
				return Trace{}, fmt.Errorf("gdi: line %d: bad value %q", line, rec[2+i])
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return Trace{}, fmt.Errorf("gdi: line %d: non-finite value %q", line, rec[2+i])
			}
			values[i] = v
		}
		tr.Readings = append(tr.Readings, sensor.Reading{
			Sensor: id,
			Time:   time.Duration(ns),
			Values: values,
		})
	}
	return tr, nil
}

// GenerateConfig parameterises the synthetic GDI month.
type GenerateConfig struct {
	// Sensors is the mote count (the paper uses the 10 outside motes).
	Sensors int
	// Days is the observation length (the paper uses one month).
	Days int
	// SamplePeriod is the sensing interval (the GDI motes use 5 minutes).
	SamplePeriod time.Duration
	// Noise is the per-attribute measurement noise σ.
	Noise []float64
	// LossProb and MalformProb model the missing/malformed packets of the
	// real traces.
	LossProb, MalformProb float64
	// DriftAmp scales day-to-day weather variability.
	DriftAmp float64
	// WithPressure adds the third mote attribute (barometric pressure).
	WithPressure bool
	// Seed freezes all randomness.
	Seed int64
}

// DefaultGenerateConfig mirrors the paper's setup: 10 motes, 31 days,
// 5-minute sampling, moderate sensing noise, and enough packet loss that a
// 12-sample window holds "about a hundred" usable readings.
func DefaultGenerateConfig() GenerateConfig {
	return GenerateConfig{
		Sensors:      10,
		Days:         31,
		SamplePeriod: 5 * time.Minute,
		Noise:        []float64{0.4, 1.0},
		LossProb:     0.12,
		MalformProb:  0.002,
		DriftAmp:     1,
		Seed:         1,
	}
}

// Generate produces a synthetic GDI trace. opts install fault plans or
// attack strategies on the underlying simulated deployment.
func Generate(cfg GenerateConfig, opts ...network.Option) (Trace, error) {
	if cfg.Sensors <= 0 || cfg.Days <= 0 {
		return Trace{}, errors.New("gdi: sensors and days must be positive")
	}
	var (
		field env.Field
		err   error
	)
	noise := cfg.Noise
	ranges := Ranges()
	attrs := Attributes
	if cfg.WithPressure {
		field, err = env.GDIProfile3(cfg.Seed, cfg.DriftAmp)
		ranges = Ranges3()
		attrs = Attributes3
		if len(noise) == 2 {
			noise = append(append([]float64(nil), noise...), 0.3)
		}
	} else {
		field, err = env.GDIProfile(cfg.Seed, cfg.DriftAmp)
	}
	if err != nil {
		return Trace{}, err
	}
	dep, err := network.New(network.Config{
		Sensors:      cfg.Sensors,
		SamplePeriod: cfg.SamplePeriod,
		Noise:        noise,
		Ranges:       ranges,
		Link:         network.LinkConfig{LossProb: cfg.LossProb, MalformProb: cfg.MalformProb},
		Seed:         cfg.Seed,
	}, field, opts...)
	if err != nil {
		return Trace{}, err
	}
	tr := Trace{Attributes: append([]string(nil), attrs...)}
	end := time.Duration(cfg.Days) * 24 * time.Hour
	err = dep.Run(0, end, func(_ time.Duration, msgs []sensor.Reading) error {
		tr.Readings = append(tr.Readings, msgs...)
		return nil
	})
	if err != nil {
		return Trace{}, err
	}
	return tr, nil
}
