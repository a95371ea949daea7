package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
	"time"

	"sensorguard/internal/ingest"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// fuzzSeedCheckpoint builds one well-formed checkpoint so the fuzzer starts
// from the real format rather than random bytes.
func fuzzSeedCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	hdr := checkpointHeader{Shard: 0, Shards: 1, Seq: 42, WindowNS: int64(time.Hour)}
	frame, err := ingest.EncodeFrame([]ingest.Reading{
		{Deployment: "alpha", Reading: sensor.Reading{Sensor: 0, Time: time.Minute, Values: vecmat.Vector{15, 80}}},
		{Deployment: "alpha", Reading: sensor.Reading{Sensor: 1, Time: 2 * time.Minute, Values: vecmat.Vector{16, 81}}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	deps := []deploymentCheckpoint{
		{
			Name:    "alpha",
			State:   StateBootstrapping,
			Started: true,
			FirstNS: int64(time.Minute),
			Pending: 2,
			frames:  [][]byte{frame},
		},
		{Name: "beta", State: StateFailed, Err: "window 3: step failed"},
	}
	buf, err := encodeCheckpoint(hdr, deps)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// fuzzSeedCheckpointV1 is the same checkpoint as sgckpt1, built by hand
// because nothing writes that format any more: the buffered readings sit
// inside the deployment record as JSON objects.
func fuzzSeedCheckpointV1() []byte {
	buf := appendRecord([]byte(checkpointMagicV1),
		[]byte(`{"version":1,"shard":0,"shards":1,"seq":42,"window_ns":3600000000000,"deployments":2}`))
	buf = appendRecord(buf, []byte(`{"name":"alpha","state":"bootstrapping","started":true,"first_ns":60000000000,"late":0,`+
		`"pending":[{"sensor":0,"time_ns":60000000000,"values":[15,80]},{"sensor":1,"time_ns":120000000000,"values":[16,81]}]}`))
	return appendRecord(buf, []byte(`{"name":"beta","state":"failed","started":false,"first_ns":0,"late":0,"err":"window 3: step failed"}`))
}

// FuzzCheckpointDecode throws arbitrary bytes at the checkpoint codec and the
// deployment-restore layer behind it. The invariants: no panic, and either a
// clean error (the caller falls back to the previous checkpoint) or a fully
// valid set of deployments — never partial state.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(fuzzSeedCheckpoint(f))
	f.Add(fuzzSeedCheckpointV1())
	f.Add([]byte(checkpointMagic))
	f.Add([]byte("sgckpt1\n\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte{})
	// A seed with a huge length prefix exercises the allocation bound.
	f.Add(append([]byte(checkpointMagic), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0))

	cfg := Config{Durability: Durability{Dir: "unused"}}.withDefaults()
	fuzzShard := &shard{pool: &Pool{cfg: cfg}}
	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := decodeCheckpoint(data, 0, 1)
		if err != nil {
			return // clean rejection: recovery falls back
		}
		// A decoded checkpoint must restore all-or-nothing.
		restored := 0
		for _, rec := range cf.deployments {
			d, err := fuzzShard.restoreDeployment(rec)
			if err != nil {
				continue // rejected record: the whole checkpoint is discarded
			}
			if d == nil || d.name != rec.Name {
				t.Fatalf("restore returned inconsistent deployment for %q", rec.Name)
			}
			restored++
		}
		// Anything that decoded and restored must re-encode decodeably
		// (the write path only ever produces readable files).
		if restored == len(cf.deployments) {
			buf, err := encodeCheckpoint(cf.header, cf.deployments)
			if err != nil {
				t.Fatalf("re-encode of accepted checkpoint failed: %v", err)
			}
			if _, err := decodeCheckpoint(buf, 0, 1); err != nil {
				t.Fatalf("re-encoded checkpoint does not decode: %v", err)
			}
		}
	})
}

// fuzzSeedSegments builds well-formed journal segments for shard 0 of 1: a
// binary segment holding two batch records, and a legacy JSON segment.
func fuzzSeedSegments(tb testing.TB) (v2, v1 []byte) {
	tb.Helper()
	hdr := binary.AppendUvarint(nil, 0) // shard
	hdr = binary.AppendUvarint(hdr, 1)  // shards
	hdr = binary.AppendUvarint(hdr, 0)  // base
	v2 = appendRecord([]byte(journalMagic), hdr)
	run := []ingest.Reading{
		{Deployment: "d", Seq: 1, Reading: sensor.Reading{Sensor: 0, Time: 60, Values: vecmat.Vector{1, 2}}},
		{Deployment: "e", Seq: 1, Reading: sensor.Reading{Sensor: 3, Time: 61, Values: vecmat.Vector{3, 4}}},
	}
	v2 = appendJournalRecord(tb, v2, 1, run)
	v2 = appendJournalRecord(tb, v2, 3, run[:1])

	v1 = []byte(journalMagicV1)
	h, _ := json.Marshal(journalHeaderV1{Version: 1, Shard: 0, Shards: 1, Base: 0})
	v1 = appendRecord(v1, h)
	for seq := uint64(1); seq <= 2; seq++ {
		e, _ := json.Marshal(journalEntryV1{Seq: seq, Deployment: "d", Sensor: 0, TimeNS: 60, Values: []float64{1}})
		v1 = appendRecord(v1, e)
	}
	return v2, v1
}

// FuzzJournalRecords drives the journal with arbitrary bytes at two layers.
// The shared record framing must never panic and must hand back only
// records whose CRC verified, then stop. The segment decoder above it must
// never panic and must deliver only valid readings with contiguous
// sequences, whatever the bytes — whether it reads them as a binary segment,
// a legacy JSON one, or neither.
func FuzzJournalRecords(f *testing.F) {
	v2, v1 := fuzzSeedSegments(f)
	f.Add(v2)
	f.Add(v2[:len(v2)-3]) // torn batch record
	f.Add(v1)
	f.Add(v1[:len(v1)-3])
	f.Add([]byte(journalMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		records, tail := readAllRecords(data, journalMagic)
		// Every returned record must round-trip its own framing.
		reframed := []byte(journalMagic)
		for _, rec := range records {
			reframed = appendRecord(reframed, rec)
		}
		again, tail2 := readAllRecords(reframed, journalMagic)
		if tail2 != nil {
			t.Fatalf("reframed records do not parse cleanly: %v", tail2)
		}
		if len(again) != len(records) {
			t.Fatalf("reframe lost records: %d != %d", len(again), len(records))
		}
		for i := range records {
			if !bytes.Equal(again[i], records[i]) {
				t.Fatalf("record %d changed across reframe", i)
			}
		}
		_ = tail

		var last uint64
		n := 0
		_ = decodeSegment(data, 0, 1, func(seq uint64, r ingest.Reading) bool {
			if n > 0 && seq != last+1 {
				t.Fatalf("reading %d has seq %d after %d", n, seq, last)
			}
			if err := ingest.CheckFrameReading(r); err != nil {
				t.Fatalf("reading %d (seq %d) delivered invalid: %v", n, seq, err)
			}
			last = seq
			n++
			return true
		})
	})
}
