package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"sensorguard/internal/chaos"
	"sensorguard/internal/ingest"
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
// a record is staged atomically and never splits a sequence range.
//
// Appends go straight to the file descriptor (no userspace buffering), so a
// killed process loses nothing it acknowledged; only checkpoints fsync.

// recordHeadLen is the space a record reserves ahead of its frame: the
// framing's length and CRC, then the first sequence.
const recordHeadLen = 8 + 8

// beginRecord appends the placeholder head of a record to dst; the caller
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

// openJournal creates a fresh segment with the given base sequence.
func openJournal(fsys chaos.FS, dir string, shard, shards int, base uint64) (*journalWriter, error) {
	path := journalFiles.path(dir, base)
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

// errSegmentHeader reports a segment whose magic or header record cannot be
// read although the file is long enough to hold readings past them, so
// those readings cannot be read either.
var errSegmentHeader = errors.New("no readable magic and header")

// maxSegmentHeaderLen is the longest a segment can be before its first
// record: the magic and a framed header of three uvarints. openJournal
// writes exactly that before anything else, so a file no longer is an open
// that failed or was torn part-way (a degraded shard's half-open probe
// leaves one behind on every failed attempt) and never held a reading.
const maxSegmentHeaderLen = len(journalMagic) + 8 + 3*binary.MaxVarintLen64

// decodeSegment walks one segment's readings in sequence order, calling fn
// for each until fn returns false. It tolerates a torn or corrupt tail:
// every reading before the first bad record is delivered, and a record is
// delivered whole or not at all. Sequences are checked as they go — the
// first reading must lie above the segment's base and each later one must
// follow its predecessor exactly — and the walk stops at the first record
// that breaks the chain or holds a reading the frame decoder would reject,
// since past either the order of the stream is no longer known. A segment
// whose magic or header is unreadable delivers nothing: that is no error
// when the file is too short to have held a reading (maxSegmentHeaderLen),
// and errSegmentHeader otherwise, for the caller to weigh. A segment
// belonging to another shard layout is an error. Recovery refuses a retired
// format before it gets here (refuseRetired).
func decodeSegment(data []byte, wantShard, wantShards int, fn func(seq uint64, r ingest.Reading) bool) error {
	var headerless error
	if len(data) > maxSegmentHeaderLen {
		headerless = errSegmentHeader
	}
	if !bytes.HasPrefix(data, []byte(journalMagic)) {
		return headerless
	}
	hdr, data, err := nextRecord(data[len(journalMagic):])
	if err != nil {
		return headerless
	}
	var fields [3]uint64
	for i := range fields {
		v, n := binary.Uvarint(hdr)
		if n <= 0 {
			return headerless
		}
		fields[i], hdr = v, hdr[n:]
	}
	if len(hdr) != 0 {
		return headerless
	}
	if fields[0] != uint64(wantShard) || fields[1] != uint64(wantShards) {
		return fmt.Errorf("belongs to shard %d/%d, want %d/%d", fields[0], fields[1], wantShard, wantShards)
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
