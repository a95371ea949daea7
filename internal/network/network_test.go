package network

import (
	"errors"
	"math"
	"testing"
	"time"

	"sensorguard/internal/attack"
	"sensorguard/internal/env"
	"sensorguard/internal/fault"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

func testConfig() Config {
	return Config{
		Sensors:      10,
		SamplePeriod: 5 * time.Minute,
		Noise:        []float64{0.3, 0.8},
		Ranges:       []sensor.Range{{Lo: -40, Hi: 60}, {Lo: 0, Hi: 100}},
		Seed:         1,
	}
}

func constantField(temp, hum float64) env.Field {
	return env.Field{env.Constant(temp), env.Constant(hum)}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no sensors", func(c *Config) { c.Sensors = 0 }},
		{"zero period", func(c *Config) { c.SamplePeriod = 0 }},
		{"no attributes", func(c *Config) { c.Noise = nil }},
		{"range mismatch", func(c *Config) { c.Ranges = c.Ranges[:1] }},
		{"bad loss prob", func(c *Config) { c.Link.LossProb = 1.5 }},
		{"bad malform prob", func(c *Config) { c.Link.MalformProb = -0.1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewRejectsFieldMismatch(t *testing.T) {
	if _, err := New(testConfig(), env.Field{env.Constant(1)}); err == nil {
		t.Error("field/noise dimension mismatch accepted")
	}
}

func TestRoundDeliversAllWithoutLoss(t *testing.T) {
	d, err := New(testConfig(), constantField(20, 70))
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := d.Round(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 10 {
		t.Fatalf("delivered %d messages, want 10", len(msgs))
	}
	for _, m := range msgs {
		if math.Abs(m.Values[0]-20) > 3 || math.Abs(m.Values[1]-70) > 5 {
			t.Errorf("sensor %d reading %v far from truth (20,70)", m.Sensor, m.Values)
		}
	}
}

func TestRoundLossRate(t *testing.T) {
	cfg := testConfig()
	cfg.Link.LossProb = 0.3
	d, err := New(cfg, constantField(20, 70))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		msgs, err := d.Round(time.Duration(i) * cfg.SamplePeriod)
		if err != nil {
			t.Fatal(err)
		}
		total += len(msgs)
	}
	rate := float64(total) / float64(rounds*cfg.Sensors)
	if math.Abs(rate-0.7) > 0.03 {
		t.Errorf("delivery rate = %v, want ≈0.7", rate)
	}
}

func TestPerSensorLoss(t *testing.T) {
	cfg := testConfig()
	cfg.Link.LossProb = 0
	cfg.Link.PerSensorLoss = map[int]float64{3: 0.8}
	d, err := New(cfg, constantField(20, 70))
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	const rounds = 1500
	for i := 0; i < rounds; i++ {
		msgs, err := d.Round(time.Duration(i) * cfg.SamplePeriod)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			counts[m.Sensor]++
		}
	}
	if counts[0] != rounds {
		t.Errorf("sensor 0 delivered %d/%d, want all", counts[0], rounds)
	}
	rate := float64(counts[3]) / float64(rounds)
	if math.Abs(rate-0.2) > 0.04 {
		t.Errorf("weak sensor delivery rate = %v, want ≈0.2", rate)
	}

	cfg.Link.PerSensorLoss = map[int]float64{3: 1.5}
	if err := cfg.Validate(); err == nil {
		t.Error("invalid per-sensor loss accepted")
	}
}

func TestRoundMalformedWithinRanges(t *testing.T) {
	cfg := testConfig()
	cfg.Link.MalformProb = 1 // every delivered message malformed
	d, err := New(cfg, constantField(20, 70))
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := d.Round(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if m.Values[0] < -40 || m.Values[0] > 60 || m.Values[1] < 0 || m.Values[1] > 100 {
			t.Errorf("malformed values %v escaped admissible ranges", m.Values)
		}
	}
}

func TestRoundAppliesFaultsThenAttack(t *testing.T) {
	plan, err := fault.NewPlan(fault.Schedule{
		Sensor:   6,
		Injector: fault.StuckAt{Value: vecmat.Vector{15, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := attack.NewAdversary([]int{0, 1, 2}, testConfig().Ranges)
	if err != nil {
		t.Fatal(err)
	}
	strat := &attack.DynamicCreation{Adversary: adv, Target: vecmat.Vector{25, 69}}

	d, err := New(testConfig(), constantField(17, 86), WithFaults(plan), WithAttack(strat))
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := d.Round(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bySensor := make(map[int]sensor.Reading, len(msgs))
	for _, m := range msgs {
		bySensor[m.Sensor] = m
	}
	if got := bySensor[6].Values; !got.Equal(vecmat.Vector{15, 1}, 0) {
		t.Errorf("faulty sensor 6 = %v, want stuck (15,1)", got)
	}
	// Malicious sensors carry the compensating injection; correct,
	// non-faulty sensors remain near truth.
	if got := bySensor[4].Values; math.Abs(got[0]-17) > 3 {
		t.Errorf("correct sensor 4 = %v, want near (17,86)", got)
	}
	if got := bySensor[0].Values; math.Abs(got[0]-17) < 3 {
		t.Errorf("malicious sensor 0 = %v, want far from truth", got)
	}
}

func TestRunStepsThroughTime(t *testing.T) {
	d, err := New(testConfig(), constantField(20, 70))
	if err != nil {
		t.Fatal(err)
	}
	var times []time.Duration
	err = d.Run(0, time.Hour, func(tt time.Duration, _ []sensor.Reading) error {
		times = append(times, tt)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 12 {
		t.Fatalf("delivered %d rounds over an hour at 5min, want 12", len(times))
	}
	if times[1]-times[0] != 5*time.Minute {
		t.Errorf("round spacing = %v", times[1]-times[0])
	}
	// Error propagation from the callback.
	wantErr := errors.New("stop")
	err = d.Run(0, time.Hour, func(time.Duration, []sensor.Reading) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Errorf("callback error not propagated: %v", err)
	}
	if err := d.Run(0, time.Hour, nil); err == nil {
		t.Error("nil callback accepted")
	}
	if err := d.Run(time.Hour, 0, func(time.Duration, []sensor.Reading) error { return nil }); err == nil {
		t.Error("inverted interval accepted")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []sensor.Reading {
		cfg := testConfig()
		cfg.Link.LossProb = 0.1
		d, err := New(cfg, constantField(20, 70))
		if err != nil {
			t.Fatal(err)
		}
		var all []sensor.Reading
		_ = d.Run(0, 2*time.Hour, func(_ time.Duration, msgs []sensor.Reading) error {
			all = append(all, msgs...)
			return nil
		})
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Sensor != b[i].Sensor || a[i].Time != b[i].Time || !a[i].Values.Equal(b[i].Values, 0) {
			t.Fatalf("replay diverged at message %d", i)
		}
	}
}
