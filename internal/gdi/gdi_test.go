package gdi

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"sensorguard/internal/fault"
	"sensorguard/internal/network"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

func smallConfig() GenerateConfig {
	cfg := DefaultGenerateConfig()
	cfg.Days = 2
	return cfg
}

func TestGenerateShape(t *testing.T) {
	cfg := smallConfig()
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(tr.Attributes) != 2 {
		t.Fatalf("attributes = %v", tr.Attributes)
	}
	// 2 days at 5-minute sampling with 12% loss: about 0.88 * 576 * 10.
	want := float64(2*24*12*10) * (1 - cfg.LossProb)
	if math.Abs(float64(len(tr.Readings))-want) > want*0.05 {
		t.Errorf("readings = %d, want ≈%v", len(tr.Readings), want)
	}
	ids := tr.Sensors()
	if len(ids) != 10 {
		t.Errorf("sensors = %v, want 10 ids", ids)
	}
	if d := tr.Duration(); d < 47*time.Hour {
		t.Errorf("duration = %v, want ≈48h", d)
	}

	// Physical plausibility: humidity within range for all readings.
	for _, r := range tr.Readings {
		if r.Values[1] < 0 || r.Values[1] > 100 {
			t.Fatalf("humidity %v out of range", r.Values[1])
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Sensors = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("zero sensors accepted")
	}
	cfg = smallConfig()
	cfg.Days = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("zero days accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Readings) != len(b.Readings) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Readings), len(b.Readings))
	}
	for i := range a.Readings {
		if !a.Readings[i].Values.Equal(b.Readings[i].Values, 0) {
			t.Fatalf("diverged at reading %d", i)
		}
	}
}

func TestGenerateWithFaultPlan(t *testing.T) {
	plan, err := fault.NewPlan(fault.Schedule{
		Sensor:   6,
		Injector: fault.StuckAt{Value: vecmat.Vector{15, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(smallConfig(), network.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	stuck := 0
	six := tr.FilterSensor(6)
	if len(six) == 0 {
		t.Fatal("sensor 6 absent from trace")
	}
	for _, r := range six {
		if r.Values.Equal(vecmat.Vector{15, 1}, 0) {
			stuck++
		}
	}
	// All but the occasional malformed packet must be stuck.
	if float64(stuck) < 0.98*float64(len(six)) {
		t.Errorf("stuck fraction = %d/%d", stuck, len(six))
	}
}

func TestGenerateWithPressure(t *testing.T) {
	cfg := smallConfig()
	cfg.WithPressure = true
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(tr.Attributes) != 3 || tr.Attributes[2] != "pressure" {
		t.Fatalf("attributes = %v", tr.Attributes)
	}
	for _, r := range tr.Readings {
		if len(r.Values) != 3 {
			t.Fatalf("reading dim = %d", len(r.Values))
		}
		if r.Values[2] < 950 || r.Values[2] > 1070 {
			t.Fatalf("pressure %v outside admissible range", r.Values[2])
		}
	}
	if got := Ranges3(); len(got) != 3 || got[2].Lo != 950 {
		t.Errorf("Ranges3 = %v", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Trace{
		Attributes: []string{"temperature", "humidity"},
		Readings: []sensor.Reading{
			{Sensor: 0, Time: 5 * time.Minute, Values: vecmat.Vector{12.5, 94.25}},
			{Sensor: 3, Time: 10 * time.Minute, Values: vecmat.Vector{-3, 100}},
		},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(got.Readings) != 2 || got.Attributes[0] != "temperature" {
		t.Fatalf("round trip = %+v", got)
	}
	for i := range tr.Readings {
		a, b := tr.Readings[i], got.Readings[i]
		if a.Sensor != b.Sensor || a.Time != b.Time || !a.Values.Equal(b.Values, 1e-9) {
			t.Errorf("reading %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestWriteCSVRejectsRaggedReading(t *testing.T) {
	tr := Trace{
		Attributes: []string{"temperature", "humidity"},
		Readings:   []sensor.Reading{{Values: vecmat.Vector{1}}},
	}
	if err := WriteCSV(&bytes.Buffer{}, tr); err == nil {
		t.Error("ragged reading accepted")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad header", "a,b,c\n"},
		{"bad time", "time_seconds,sensor,temperature\nxx,1,2\n"},
		{"bad sensor", "time_seconds,sensor,temperature\n1,xx,2\n"},
		{"bad value", "time_seconds,sensor,temperature\n1,1,xx\n"},
		{"nan time", "time_seconds,sensor,temperature\nNaN,1,2\n"},
		{"negative time", "time_seconds,sensor,temperature\n-5,1,2\n"},
		{"overflow time", "time_seconds,sensor,temperature\n1e300,1,2\n"},
		{"time at bound", "time_seconds,sensor,temperature\n9223372036.854775808,1,2\n"},
		{"inf value", "time_seconds,sensor,temperature\n1,1,Inf\n"},
		{"nan value", "time_seconds,sensor,temperature\n1,1,NaN\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tc.in)); err == nil {
				t.Error("malformed CSV accepted")
			}
		})
	}
}

// TestReadCSVTimeBound: the time range is half-open. 2^63 ns is refused
// with the range in the message; a time just below it decodes unchanged.
func TestReadCSVTimeBound(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("time_seconds,sensor,t\n9223372036.854775808,1,2\n"))
	if err == nil || !strings.Contains(err.Error(), "outside [0, 9.223372036854776e+09)") {
		t.Fatalf("time 2^63 ns: err %v, want the half-open range", err)
	}
	tr, err := ReadCSV(strings.NewReader("time_seconds,sensor,t\n9223372036.854775,1,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Readings[0].Time; got != 9223372036854774784 {
		t.Fatalf("time %d ns, want 9223372036854774784", int64(got))
	}
}

func TestTraceHelpers(t *testing.T) {
	var empty Trace
	if empty.Duration() != 0 {
		t.Error("empty trace duration != 0")
	}
	if len(empty.Sensors()) != 0 {
		t.Error("empty trace has sensors")
	}
	tr := Trace{Readings: []sensor.Reading{
		{Sensor: 2, Time: 0, Values: vecmat.Vector{1}},
		{Sensor: 1, Time: time.Minute, Values: vecmat.Vector{2}},
		{Sensor: 2, Time: 2 * time.Minute, Values: vecmat.Vector{3}},
	}}
	if got := tr.Sensors(); len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Errorf("Sensors = %v", got)
	}
	if got := tr.FilterSensor(2); len(got) != 2 {
		t.Errorf("FilterSensor = %v", got)
	}
}
