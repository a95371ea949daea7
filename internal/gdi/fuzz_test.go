package gdi

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadCSV exercises the trace parser with arbitrary inputs: it must
// never panic, and anything it accepts must survive a write/read round
// trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("time_seconds,sensor,temperature,humidity\n300,0,12.5,94\n")
	f.Add("time_seconds,sensor,temperature\n1,1,2\n")
	f.Add("")
	f.Add("a,b\n1,2\n")
	f.Add("time_seconds,sensor,temperature,humidity\nxx,0,1,2\n")
	f.Add("time_seconds,sensor,t\n1e308,99,-0\n")
	f.Add("time_seconds,sensor,t\nNaN,0,1\n")
	f.Add("time_seconds,sensor,t\nInf,0,1\n")
	f.Add("time_seconds,sensor,t\n-300,0,1\n")
	f.Add("time_seconds,sensor,t\n9223372036.854775808,0,1\n") // 2^63 ns
	f.Add("time_seconds,sensor,t\n1,0,NaN\n")
	f.Add("time_seconds,sensor,t\n1,0,-Inf\n")
	f.Add("time_seconds,sensor,t\n1,0," + strings.Repeat("9", 1<<12) + "\n")
	f.Add("time_seconds,sensor,t\n1," + strings.Repeat("1", 400) + ",2\n")
	f.Add("time_seconds,sensor,t\n\"1\n2\",0,3\n")

	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		for _, r := range tr.Readings {
			if r.Time < 0 {
				t.Fatalf("accepted negative timestamp %v", r.Time)
			}
			for _, v := range r.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted non-finite value %v", v)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tr); err != nil {
			t.Fatalf("accepted trace failed to serialise: %v", err)
		}
		again, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("serialised trace failed to parse: %v", err)
		}
		if len(again.Readings) != len(tr.Readings) {
			t.Fatalf("round trip changed reading count: %d -> %d",
				len(tr.Readings), len(again.Readings))
		}
	})
}
