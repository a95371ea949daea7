package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/ingest"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// The write-ahead journal records every reading a shard accepts, before it
// is enqueued for processing. Segments are named journal-%016x.wal, where
// the hex field is the segment's base sequence. A new segment opens at each
// checkpoint with base = the highest sequence journaled so far, so segments
// partition the sequence space: the segment with base b holds exactly the
// readings in (b, next segment's base]. Replay after loading a checkpoint at
// seq S therefore starts at the segment with the largest base ≤ S, skips
// readings with seq ≤ S, and continues through every later segment —
// readings accepted while the checkpoint was being written (seq > S,
// journaled into the pre-rotation segment) are exactly what that rule picks
// up.
//
// A segment is the magic line "sgwal2\n" followed by CRC-framed records (see
// codec.go). The first record is the header: uvarint shard ‖ uvarint shards
// ‖ uvarint base. Every later record is one admitted shard run:
//
//	uint64 LE first sequence ‖ ingest binary frame of the run's readings
//
// The run's readings hold sequences first, first+1, … in frame row order, so
// a record is staged atomically and never splits a sequence range. Segments
// written before the binary format ("sgwal1\n", one JSON record per reading)
// are still read, never written; the checkpoint that closes recovery rotates
// into a binary segment and pruning retires the old ones.
//
// Appends go straight to the file descriptor (no userspace buffering), so a
// killed process loses nothing it acknowledged; only checkpoints fsync.

// journalHeaderV1 is the first record of a JSON segment.
type journalHeaderV1 struct {
	Version int    `json:"version"`
	Shard   int    `json:"shard"`
	Shards  int    `json:"shards"`
	Base    uint64 `json:"base"`
}

// journalEntryV1 is one reading of a JSON segment. Time travels as integer
// nanoseconds.
type journalEntryV1 struct {
	Seq        uint64    `json:"seq"`
	Deployment string    `json:"deployment"`
	WireSeq    uint64    `json:"wire_seq,omitempty"`
	Sensor     int       `json:"sensor"`
	TimeNS     int64     `json:"time_ns"`
	Values     []float64 `json:"values"`
}

// recordHeadLen is the space a v2 record reserves ahead of its frame: the
// framing's length and CRC, then the first sequence.
const recordHeadLen = 8 + 8

// beginRecord appends the placeholder head of a v2 record to dst; the caller
// appends the frame and seals the record once its sequence is known.
func beginRecord(dst []byte) []byte {
	return append(dst, make([]byte, recordHeadLen)...)
}

// sealRecord fills in the head of a record built by beginRecord + frame:
// the first sequence, then the length and CRC of the payload (sequence ‖
// frame) exactly as appendRecord would have framed it.
func sealRecord(rec []byte, first uint64) {
	payload := rec[8:]
	binary.LittleEndian.PutUint64(payload[0:8], first)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, crcTable))
}

// journalWriter appends framed records to one segment file. All I/O goes
// through the chaos.FS seam so the fault harness can fail or tear it.
type journalWriter struct {
	f    chaos.File
	path string
}

func journalPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%016x.wal", base))
}

// openJournal creates a fresh segment with the given base sequence.
func openJournal(fsys chaos.FS, dir string, shard, shards int, base uint64) (*journalWriter, error) {
	path := journalPath(dir, base)
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := binary.AppendUvarint(nil, uint64(shard))
	hdr = binary.AppendUvarint(hdr, uint64(shards))
	hdr = binary.AppendUvarint(hdr, base)
	if _, err := f.Write(appendRecord([]byte(journalMagic), hdr)); err != nil {
		f.Close()
		return nil, err
	}
	return &journalWriter{f: f, path: path}, nil
}

// write flushes a buffer of sealed records in one syscall — the group
// commit path. The single Write keeps the records contiguous, so a
// concurrent kill can only tear the final one, never interleave two. The
// buffer must hold whole records in sequence order.
func (w *journalWriter) write(buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	_, err := w.f.Write(buf)
	return err
}

func (w *journalWriter) close() error {
	if w == nil || w.f == nil {
		return nil
	}
	return w.f.Close()
}

// journalSegment is one on-disk segment, identified by its base sequence.
type journalSegment struct {
	path string
	base uint64
}

// listJournals returns the shard directory's segments in ascending base
// order. Files whose names do not parse are ignored.
func listJournals(fsys chaos.FS, dir string) ([]journalSegment, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []journalSegment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "journal-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		hexPart := strings.TrimSuffix(strings.TrimPrefix(name, "journal-"), ".wal")
		base, err := strconv.ParseUint(hexPart, 16, 64)
		if err != nil {
			continue
		}
		out = append(out, journalSegment{path: filepath.Join(dir, name), base: base})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].base < out[j].base })
	return out, nil
}

// decodeSegment walks one segment's readings in sequence order, calling fn
// for each until fn returns false. It tolerates a torn or corrupt tail:
// every reading before the first bad record is delivered, and a record is
// delivered whole or not at all. Sequences are checked as they go — the
// first reading must lie above the segment's base and each later one must
// follow its predecessor exactly — and the walk stops at the first record
// that breaks the chain or holds a reading the frame decoder would reject,
// since past either the order of the stream is no longer known. Only a
// segment belonging to another shard layout (or an unknown JSON header
// version) is an error. A segment whose magic or header is unreadable holds
// no readings.
func decodeSegment(data []byte, wantShard, wantShards int, fn func(seq uint64, r ingest.Reading) bool) error {
	switch {
	case bytes.HasPrefix(data, []byte(journalMagic)):
		return decodeSegmentV2(data[len(journalMagic):], wantShard, wantShards, fn)
	case bytes.HasPrefix(data, []byte(journalMagicV1)):
		return decodeSegmentV1(data[len(journalMagicV1):], wantShard, wantShards, fn)
	}
	return nil
}

func checkSegmentOwner(shard, shards uint64, wantShard, wantShards int) error {
	if shard != uint64(wantShard) || shards != uint64(wantShards) {
		return fmt.Errorf("belongs to shard %d/%d, want %d/%d", shard, shards, wantShard, wantShards)
	}
	return nil
}

func decodeSegmentV2(data []byte, wantShard, wantShards int, fn func(seq uint64, r ingest.Reading) bool) error {
	hdr, data, err := nextRecord(data)
	if err != nil {
		return nil // header torn: no usable records
	}
	var fields [3]uint64
	for i := range fields {
		v, n := binary.Uvarint(hdr)
		if n <= 0 {
			return nil
		}
		fields[i], hdr = v, hdr[n:]
	}
	if len(hdr) != 0 {
		return nil
	}
	if err := checkSegmentOwner(fields[0], fields[1], wantShard, wantShards); err != nil {
		return err
	}
	last, started := fields[2], false
	var slab []ingest.Reading // reused across records: fn gets each reading by value
	for {
		rec, rest, err := nextRecord(data)
		if err != nil || len(rec) < 8 {
			return nil // clean end, or the tail a crash tore
		}
		data = rest
		first := binary.LittleEndian.Uint64(rec[:8])
		rs, rejected, err := ingest.DecodeFrameInto(rec[8:], slab)
		if err != nil || rejected > 0 {
			return nil
		}
		slab = rs
		end := first + uint64(len(rs)) - 1
		if first <= last || (started && first != last+1) || end < first {
			return nil
		}
		for i, r := range rs {
			if !fn(first+uint64(i), r) {
				return nil
			}
		}
		last, started = end, true
	}
}

func decodeSegmentV1(data []byte, wantShard, wantShards int, fn func(seq uint64, r ingest.Reading) bool) error {
	rec, data, err := nextRecord(data)
	if err != nil {
		return nil
	}
	var hdr journalHeaderV1
	if err := json.Unmarshal(rec, &hdr); err != nil {
		return nil // header torn: no usable entries
	}
	if hdr.Version != 1 {
		return fmt.Errorf("version %d, want 1", hdr.Version)
	}
	if err := checkSegmentOwner(uint64(hdr.Shard), uint64(hdr.Shards), wantShard, wantShards); err != nil {
		return err
	}
	last, started := hdr.Base, false
	for {
		rec, rest, err := nextRecord(data)
		if err != nil {
			return nil
		}
		data = rest
		var e journalEntryV1
		if err := json.Unmarshal(rec, &e); err != nil {
			return nil
		}
		if e.Seq <= last || (started && e.Seq != last+1) {
			return nil
		}
		r := ingest.Reading{
			Deployment: e.Deployment,
			Seq:        e.WireSeq,
			Reading: sensor.Reading{
				Sensor: e.Sensor,
				Time:   time.Duration(e.TimeNS),
				Values: vecmat.Vector(e.Values),
			},
		}
		if ingest.CheckFrameReading(r) != nil {
			return nil
		}
		if !fn(e.Seq, r) {
			return nil
		}
		last, started = e.Seq, true
	}
}
