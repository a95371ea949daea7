package fleet

import (
	"bytes"
	"encoding/binary"
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

// FuzzCheckpointDecode throws arbitrary bytes at the checkpoint codec and the
// deployment-restore layer behind it. The invariants: no panic, and either a
// clean error (the caller falls back to the previous checkpoint) or a fully
// valid set of deployments — never partial state. Bytes in the retired
// sgckpt1 format never decode.
func FuzzCheckpointDecode(f *testing.F) {
	seed := fuzzSeedCheckpoint(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-5]) // torn final frame
	f.Add([]byte(checkpointMagic))
	f.Add([]byte("sgckpt1\n"))
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
		if bytes.HasPrefix(data, []byte("sgckpt1\n")) {
			t.Fatal("an sgckpt1 file decoded")
		}
		// A decoded checkpoint must restore all-or-nothing.
		restored := 0
		for _, rec := range cf.deployments {
			d, err := fuzzShard.restoreDeployment(rec, new([]ingest.Reading))
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

// fuzzSeedSegment builds a well-formed journal segment for shard 0 of 1
// holding two batch records, and returns it with the runs it holds.
func fuzzSeedSegment(tb testing.TB) (seg []byte, run []ingest.Reading) {
	tb.Helper()
	hdr := binary.AppendUvarint(nil, 0) // shard
	hdr = binary.AppendUvarint(hdr, 1)  // shards
	hdr = binary.AppendUvarint(hdr, 0)  // base
	seg = appendRecord([]byte(journalMagic), hdr)
	run = []ingest.Reading{
		{Deployment: "d", Seq: 1, Reading: sensor.Reading{Sensor: 0, Time: 60, Values: vecmat.Vector{1, 2}}},
		{Deployment: "e", Seq: 1, Reading: sensor.Reading{Sensor: 3, Time: 61, Values: vecmat.Vector{3, 4}}},
	}
	seg = appendJournalRecord(tb, seg, 1, run)
	return appendJournalRecord(tb, seg, 3, run[:1]), run
}

// FuzzJournalRecords drives the journal with arbitrary bytes at two layers.
// The shared record framing must never panic and must hand back only
// records whose CRC verified, then stop. The segment decoder above it must
// never panic and must deliver only valid readings with contiguous
// sequences, whatever the bytes, and none at all from a segment in the
// retired sgwal1 format.
func FuzzJournalRecords(f *testing.F) {
	seg, run := fuzzSeedSegment(f)
	f.Add(seg)
	f.Add(seg[:len(seg)-3])                        // torn batch record
	f.Add(appendJournalRecord(f, seg, 5, run[:1])) // sequence gap after seq 3
	f.Add([]byte("sgwal1\n"))
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
		retired := bytes.HasPrefix(data, []byte("sgwal1\n"))
		_ = decodeSegment(data, 0, 1, func(seq uint64, r ingest.Reading) bool {
			if retired {
				t.Fatalf("an sgwal1 segment yielded reading seq %d", seq)
			}
			if n > 0 && seq != last+1 {
				t.Fatalf("reading %d has seq %d after %d", n, seq, last)
			}
			if err := ingest.CheckFrameReading(&r); err != nil {
				t.Fatalf("reading %d (seq %d) delivered invalid: %v", n, seq, err)
			}
			last = seq
			n++
			return true
		})
	})
}
