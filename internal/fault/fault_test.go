package fault

import (
	"math"
	"testing"
	"time"

	"sensorguard/internal/stats"
	"sensorguard/internal/vecmat"
)

func TestStuckAt(t *testing.T) {
	f := StuckAt{Value: vecmat.Vector{15, 1}}
	got := f.Apply(time.Hour, time.Hour, vecmat.Vector{25, 70})
	if !got.Equal(vecmat.Vector{15, 1}, 0) {
		t.Errorf("StuckAt = %v, want (15,1)", got)
	}
	if f.Name() != "stuck-at" {
		t.Errorf("Name = %q", f.Name())
	}
	// Short value vector leaves trailing attributes untouched.
	short := StuckAt{Value: vecmat.Vector{15}}
	got = short.Apply(0, 0, vecmat.Vector{25, 70})
	if got[0] != 15 || got[1] != 70 {
		t.Errorf("partial StuckAt = %v", got)
	}
}

func TestCalibration(t *testing.T) {
	f := Calibration{Factors: vecmat.Vector{0.8, 1.1}}
	got := f.Apply(0, 0, vecmat.Vector{10, 50})
	if !got.Equal(vecmat.Vector{8, 55}, 1e-12) {
		t.Errorf("Calibration = %v", got)
	}
	// Ratio clean/faulty must be constant across environment values — the
	// classification signature of §3.4.
	for _, base := range []vecmat.Vector{{12, 94}, {31, 56}} {
		out := f.Apply(0, 0, base)
		if math.Abs(base[0]/out[0]-1/0.8) > 1e-9 {
			t.Errorf("ratio not constant for %v", base)
		}
	}
}

func TestAdditive(t *testing.T) {
	f := Additive{Offsets: vecmat.Vector{5, -10}}
	got := f.Apply(0, 0, vecmat.Vector{10, 50})
	if !got.Equal(vecmat.Vector{15, 40}, 1e-12) {
		t.Errorf("Additive = %v", got)
	}
	// Difference clean-faulty constant across environment values.
	for _, base := range []vecmat.Vector{{12, 94}, {31, 56}} {
		out := f.Apply(0, 0, base)
		if math.Abs((base[0]-out[0])-(-5)) > 1e-9 {
			t.Errorf("difference not constant for %v", base)
		}
	}
}

func TestRandomNoise(t *testing.T) {
	if _, err := NewRandomNoise(nil, 1); err == nil {
		t.Error("empty sigma accepted")
	}
	if _, err := NewRandomNoise([]float64{-1}, 1); err == nil {
		t.Error("negative sigma accepted")
	}
	f, err := NewRandomNoise([]float64{5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var r stats.Running
	for i := 0; i < 4000; i++ {
		out := f.Apply(0, 0, vecmat.Vector{100})
		r.Add(out[0])
	}
	if math.Abs(r.Mean()-100) > 0.5 {
		t.Errorf("noise mean = %v, want ≈100 (zero-mean noise)", r.Mean())
	}
	if math.Abs(r.StdDev()-5) > 0.5 {
		t.Errorf("noise stddev = %v, want ≈5", r.StdDev())
	}
}

func TestDecayToStuck(t *testing.T) {
	f := DecayToStuck{Floor: vecmat.Vector{15, 1}, TimeConstant: 24 * time.Hour}
	clean := vecmat.Vector{25, 70}

	// At onset the reading is unchanged.
	if got := f.Apply(0, 0, clean); !got.Equal(clean, 1e-9) {
		t.Errorf("at onset = %v, want %v", got, clean)
	}
	// After one time constant: floor + (clean-floor)/e.
	got := f.Apply(0, 24*time.Hour, clean)
	want := 1 + (70-1)/math.E
	if math.Abs(got[1]-want) > 1e-9 {
		t.Errorf("after τ = %v, want %v", got[1], want)
	}
	// After many time constants: effectively stuck.
	got = f.Apply(0, 30*24*time.Hour, clean)
	if !got.Equal(vecmat.Vector{15, 1}, 1e-6) {
		t.Errorf("after 30τ = %v, want (15,1)", got)
	}
	// Degenerate time constant means instant stuck.
	inst := DecayToStuck{Floor: vecmat.Vector{15, 1}}
	if got := inst.Apply(0, 0, clean); !got.Equal(vecmat.Vector{15, 1}, 0) {
		t.Errorf("zero τ = %v", got)
	}
	// Monotone decay property.
	prev := math.Inf(1)
	for h := 0; h <= 200; h += 10 {
		v := f.Apply(0, time.Duration(h)*time.Hour, clean)[1]
		if v > prev+1e-9 {
			t.Fatalf("humidity not monotonically decreasing at %dh: %v > %v", h, v, prev)
		}
		prev = v
	}
}

func TestScheduleActive(t *testing.T) {
	s := Schedule{Start: time.Hour, End: 2 * time.Hour}
	if s.Active(0) || s.Active(2*time.Hour) {
		t.Error("schedule active outside interval")
	}
	if !s.Active(time.Hour) || !s.Active(90*time.Minute) {
		t.Error("schedule inactive inside interval")
	}
	forever := Schedule{Start: time.Hour}
	if !forever.Active(1000 * time.Hour) {
		t.Error("open-ended schedule expired")
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := NewPlan(Schedule{Sensor: 1}); err == nil {
		t.Error("nil injector accepted")
	}
	if _, err := NewPlan(Schedule{Sensor: 1, Injector: StuckAt{}, Start: -time.Hour}); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := NewPlan(Schedule{Sensor: 1, Injector: StuckAt{}, Start: 2 * time.Hour, End: time.Hour}); err == nil {
		t.Error("inverted interval accepted")
	}
}

func TestPlanAppliesOnlyToScheduledSensor(t *testing.T) {
	p, err := NewPlan(
		Schedule{Sensor: 6, Injector: StuckAt{Value: vecmat.Vector{15, 1}}, Start: time.Hour},
	)
	if err != nil {
		t.Fatal(err)
	}
	clean := vecmat.Vector{25, 70}

	// Other sensors untouched.
	if got, ok := p.Apply(7, 2*time.Hour, clean); !ok || !got.Equal(clean, 0) {
		t.Errorf("sensor 7 corrupted: %v %v", got, ok)
	}
	// Before onset untouched.
	if got, ok := p.Apply(6, 0, clean); !ok || !got.Equal(clean, 0) {
		t.Errorf("pre-onset corrupted: %v %v", got, ok)
	}
	// After onset stuck.
	if got, ok := p.Apply(6, 2*time.Hour, clean); !ok || !got.Equal(vecmat.Vector{15, 1}, 0) {
		t.Errorf("post-onset = %v %v, want stuck", got, ok)
	}
}

func TestPlanStacksInjectors(t *testing.T) {
	p, err := NewPlan(
		Schedule{Sensor: 1, Injector: Additive{Offsets: vecmat.Vector{10}}},
		Schedule{Sensor: 1, Injector: Calibration{Factors: vecmat.Vector{2}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := p.Apply(1, time.Hour, vecmat.Vector{5})
	// (5+10)*2 = 30: schedules apply in declaration order.
	if !ok || got[0] != 30 {
		t.Errorf("stacked = %v, want 30", got[0])
	}
}

func TestOutageDropsEveryMessageWhileActive(t *testing.T) {
	p, err := NewPlan(
		Schedule{Sensor: 2, Injector: Outage{}, Start: time.Hour, End: 2 * time.Hour},
		Schedule{Sensor: 3, Injector: Outage{}, Start: 4 * time.Hour}, // open-ended: the sensor left
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Apply(2, 90*time.Minute, vecmat.Vector{5}); ok {
		t.Error("message delivered during outage")
	}
	if got, ok := p.Apply(2, 3*time.Hour, vecmat.Vector{5}); !ok || got[0] != 5 {
		t.Errorf("after outage: got %v ok=%v, want untouched delivery", got, ok)
	}
	if _, ok := p.Apply(3, 100*time.Hour, vecmat.Vector{5}); ok {
		t.Error("departed sensor still transmitting")
	}
	if got, ok := p.Apply(3, time.Hour, vecmat.Vector{5}); !ok || got[0] != 5 {
		t.Errorf("before departure: got %v ok=%v, want untouched delivery", got, ok)
	}
}
