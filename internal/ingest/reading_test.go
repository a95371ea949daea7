package ingest

import (
	"errors"
	"strings"
	"testing"
	"time"

	"sensorguard/internal/vecmat"
)

func TestCodecRoundTrip(t *testing.T) {
	in := Reading{Deployment: "gdi"}
	in.Sensor = 7
	in.Time = 310*time.Second + 500*time.Millisecond
	in.Values = vecmat.Vector{12.5, 94}
	line, err := EncodeLine(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if out.Deployment != "gdi" || out.Sensor != 7 || out.Time != in.Time {
		t.Errorf("round trip changed identity: %+v", out)
	}
	if len(out.Values) != 2 || out.Values[0] != 12.5 || out.Values[1] != 94 {
		t.Errorf("round trip changed values: %v", out.Values)
	}
}

func TestDecodeLineDefaultsDeployment(t *testing.T) {
	r, err := DecodeLine([]byte(`{"sensor":1,"time_s":5,"values":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	if r.Deployment != DefaultDeployment {
		t.Errorf("deployment %q, want %q", r.Deployment, DefaultDeployment)
	}
}

func TestDecodeLineRejects(t *testing.T) {
	for name, line := range map[string]string{
		"not json":       `sensor,5,1`,
		"inf time":       `{"sensor":1,"time_s":1e999,"values":[1]}`,
		"negative time":  `{"sensor":1,"time_s":-5,"values":[1]}`,
		"overflow time":  `{"sensor":1,"time_s":1e300,"values":[1]}`,
		"no values":      `{"sensor":1,"time_s":5,"values":[]}`,
		"missing values": `{"sensor":1,"time_s":5}`,
		"inf value":      `{"sensor":1,"time_s":5,"values":[1e999]}`,
		// The binary codec's bounds apply to NDJSON too.
		"too many values": `{"sensor":1,"time_s":5,"values":[` + strings.Repeat("1,", maxFrameDim) + `1]}`,
		"oversize key":    `{"deployment":"` + strings.Repeat("k", maxDeploymentLen+1) + `","sensor":1,"time_s":5,"values":[1]}`,
	} {
		if _, err := DecodeLine([]byte(line)); err == nil {
			t.Errorf("%s: accepted %s", name, line)
		}
	}
}

// collector is a test Consumer: records readings, optionally failing.
type collector struct {
	got  []Reading
	drop bool
	err  error
}

func (c *collector) SubmitBatch(rs []Reading) (int, int, error) {
	if c.err != nil {
		return 0, 0, c.err
	}
	if c.drop {
		return 0, len(rs), nil
	}
	c.got = append(c.got, rs...)
	return len(rs), 0, nil
}

func TestReadStreamCounts(t *testing.T) {
	input := `{"sensor":0,"time_s":1,"values":[1,2]}
not a reading

{"sensor":1,"time_s":2,"values":[3,4]}
{"sensor":2,"time_s":-1,"values":[5]}
`
	var c collector
	st, err := ReadWireStream(strings.NewReader(input), &c, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 2 || st.Rejected != 2 || st.Dropped != 0 {
		t.Errorf("stats %+v, want accepted 2 rejected 2", st)
	}
	if len(c.got) != 2 || c.got[1].Sensor != 1 {
		t.Errorf("consumer got %+v", c.got)
	}
}

func TestReadStreamDropsAndFatals(t *testing.T) {
	st, err := ReadWireStream(strings.NewReader(`{"sensor":0,"time_s":1,"values":[1]}`+"\n"), &collector{drop: true}, StreamOptions{})
	if err != nil || st.Dropped != 1 {
		t.Errorf("drop path: stats %+v err %v", st, err)
	}
	boom := errors.New("boom")
	if _, err := ReadWireStream(strings.NewReader(`{"sensor":0,"time_s":1,"values":[1]}`+"\n"), &collector{err: boom}, StreamOptions{}); !errors.Is(err, boom) {
		t.Errorf("fatal consumer error not propagated: %v", err)
	}
}
