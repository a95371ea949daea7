package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"sensorguard/internal/chaos"
	"sensorguard/internal/core"
	"sensorguard/internal/ingest"
	"sensorguard/internal/sensor"
)

// A checkpoint is the complete durable state of one shard at journal
// sequence Seq: a header record, then each deployment's records. Unlike a
// journal, a checkpoint is all-or-nothing — if any record fails to decode,
// the whole file is invalid and recovery falls back to the previous
// checkpoint plus a longer journal replay (and refuses to start when no
// retained checkpoint is usable and the journal no longer reaches back to
// sequence 0). Files are written to a temporary
// name, fsynced, and renamed into place, so a crash mid-write never shadows
// the previous checkpoint.
//
// After the magic line "sgckpt2\n" come CRC-framed records (codec.go): the
// JSON header, then for each deployment, in name order, its JSON record
// followed by Frames records that each hold one ingest binary frame. The
// frames carry every reading the deployment buffers — the bootstrap Pending
// buffer first, then each open window's readings in ascending window index —
// so a reading has one binary encoding on the wire, in the journal and here.
// The JSON record says how many readings belong where.

// checkpointVersion is the header version sgckpt2 files carry.
const checkpointVersion = 2

// checkpointHeader is the first record of a checkpoint file.
type checkpointHeader struct {
	Version     int    `json:"version"`
	Shard       int    `json:"shard"`
	Shards      int    `json:"shards"`
	Seq         uint64 `json:"seq"`
	WindowNS    int64  `json:"window_ns"`
	Deployments int    `json:"deployments"`
}

// deploymentCheckpoint is one deployment's record and the frames after it.
type deploymentCheckpoint struct {
	Name        string `json:"name"`
	State       string `json:"state"`
	Started     bool   `json:"started"`
	FirstNS     int64  `json:"first_ns"`
	Late        int    `json:"late"`
	LastWireSeq uint64 `json:"last_wire_seq,omitempty"`
	// Pending counts the bootstrap buffer's readings; Frames counts the
	// frame records that follow this one (encodeCheckpoint sets it).
	Pending  int                   `json:"pending_readings,omitempty"`
	Frames   int                   `json:"frames,omitempty"`
	Windower *ingest.WindowerState `json:"windower,omitempty"`
	Detector *core.Snapshot        `json:"detector,omitempty"`
	Err      string                `json:"err,omitempty"`

	// frames are the buffered readings as ingest frames: Pending's, then
	// each open window's in ascending index order.
	frames [][]byte
}

// frameBuffered encodes a deployment's buffered readings — pending, then
// the windower's open windows' as Export lists them — as ingest frames, cut
// so none exceeds ingest.MaxFramePayload. A reading the frame decoder would
// refuse is an error: a checkpoint never holds a frame it could not read
// back.
func frameBuffered(name string, pending, open []sensor.Reading) ([][]byte, error) {
	return new(framedBuffer).frames(name, append(slices.Clip(pending), open...))
}

// framedBuffer is a buffer of readings kept as the frames frameBuffered cuts
// from it. A bootstrapping deployment's pending buffer only grows until
// bootstrap clears it, and frames are independent, so the deployment keeps
// one across checkpoints and each checkpoint encodes only the readings
// appended since the last: sealed holds the full frames, each cut where the
// next reading overflowed it, and tail the readings after them.
type framedBuffer struct {
	sealed [][]byte
	tail   ingest.FrameEncoder
	budget int // the tail's readingBudget total
	n      int // readings in sealed and tail
}

// frames returns buf's frames, where buf extends the buffer of every
// earlier call.
func (f *framedBuffer) frames(name string, buf []sensor.Reading) ([][]byte, error) {
	for ; f.n < len(buf); f.n++ {
		r := ingest.Reading{Deployment: name, Reading: buf[f.n]}
		if err := ingest.CheckFrameReading(&r); err != nil {
			return nil, fmt.Errorf("fleet: deployment %s buffered reading %d: %w", name, f.n, err)
		}
		b := readingBudget(&r)
		if f.tail.Len() > 0 && f.budget+b > ingest.MaxFramePayload {
			frame, err := f.tail.Frame()
			if err != nil {
				return nil, fmt.Errorf("fleet: deployment %s: %w", name, err)
			}
			f.sealed = append(f.sealed, frame)
			f.tail, f.budget = ingest.FrameEncoder{}, 0
		}
		_ = f.tail.Add(r) // Add refuses no reading CheckFrameReading passes
		f.budget += b
	}
	frames := f.sealed[:len(f.sealed):len(f.sealed)]
	if f.tail.Len() > 0 {
		frame, err := f.tail.Frame()
		if err != nil {
			return nil, fmt.Errorf("fleet: deployment %s: %w", name, err)
		}
		frames = append(frames, frame)
	}
	return frames, nil
}

// readings decodes the record's frames back into the bootstrap buffer and
// the open windows' readings, in the order frameBuffered wrote them. A frame
// that fails to decode, holds a reading the decoder rejects or names another
// deployment, or a reading count that disagrees with the record, is an
// error. Frames decode into *scratch, which a caller restoring several
// records reuses; pending and open are copied out of it, and their Values
// are each frame's fresh slab.
func (rec *deploymentCheckpoint) readings(scratch *[]ingest.Reading) (pending, open []sensor.Reading, err error) {
	size := 0
	for _, f := range rec.frames {
		size += len(f)
	}
	// Every reading carries at least one 8-byte value, which bounds the
	// counts before anything is sized by them.
	want := rec.Pending
	if rec.Windower != nil {
		for idx, n := range rec.Windower.Open {
			if n < 0 || n > size/8 {
				return nil, nil, fmt.Errorf("fleet: deployment %s window %d lists %d readings", rec.Name, idx, n)
			}
			want += n
		}
	}
	if rec.Pending < 0 || want > size/8 {
		return nil, nil, fmt.Errorf("fleet: deployment %s lists %d buffered readings in %d frame bytes", rec.Name, want, size)
	}
	// A bootstrap buffer grows on as the journal replays after the restore:
	// give a buffer with no open windows behind it the headroom its first
	// append would reallocate for, so it is not copied whole.
	headroom := 0
	if want == rec.Pending {
		headroom = want / 4
	}
	all := make([]sensor.Reading, 0, want+headroom)
	for i, f := range rec.frames {
		rs, rejected, err := ingest.DecodeFrameInto(f, *scratch)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: deployment %s frame %d: %w", rec.Name, i, err)
		}
		if rejected > 0 {
			return nil, nil, fmt.Errorf("fleet: deployment %s frame %d holds %d invalid readings", rec.Name, i, rejected)
		}
		for j := range rs {
			if rs[j].Deployment != rec.Name {
				return nil, nil, fmt.Errorf("fleet: deployment %s frame %d holds a reading of %q", rec.Name, i, rs[j].Deployment)
			}
			all = append(all, rs[j].Reading)
		}
		*scratch = rs
	}
	if len(all) != want {
		return nil, nil, fmt.Errorf("fleet: deployment %s frames hold %d readings, record lists %d", rec.Name, len(all), want)
	}
	if len(all) > rec.Pending {
		open = all[rec.Pending:]
		all = all[:rec.Pending:rec.Pending] // appends to pending must not reach open
	}
	if rec.Pending > 0 {
		pending = all
	}
	return pending, open, nil
}

// checkpointFile is the decoded form of one valid checkpoint.
type checkpointFile struct {
	header      checkpointHeader
	deployments []deploymentCheckpoint
}

// encodeCheckpoint frames the header and deployment records, each
// deployment's frames right after its record, as sgckpt2.
func encodeCheckpoint(hdr checkpointHeader, deps []deploymentCheckpoint) ([]byte, error) {
	hdr.Version = checkpointVersion
	hdr.Deployments = len(deps)
	buf := []byte(checkpointMagic)
	payload, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	buf = appendRecord(buf, payload)
	for _, d := range deps {
		d.Frames = len(d.frames)
		payload, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		buf = appendRecord(buf, payload)
		for _, f := range d.frames {
			buf = appendRecord(buf, f)
		}
	}
	return buf, nil
}

// writeCheckpoint atomically persists a checkpoint: write to a temporary
// file, fsync it, rename into place, fsync the directory. Returns the byte
// size written.
func writeCheckpoint(fsys chaos.FS, dir string, hdr checkpointHeader, deps []deploymentCheckpoint) (int, error) {
	buf, err := encodeCheckpoint(hdr, deps)
	if err != nil {
		return 0, err
	}
	final := checkpointFiles.path(dir, hdr.Seq)
	tmp := final + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return 0, err
	}
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp)
		return 0, err
	}
	_ = fsys.SyncDir(dir)
	return len(buf), nil
}

// decodeCheckpoint validates a checkpoint file's framing, header and
// records. Any torn frame, header mismatch, or record count that disagrees
// with the header or a deployment record invalidates the whole file. The
// frames stay encoded (and alias data) until restoreDeployment decodes them.
func decodeCheckpoint(data []byte, wantShard, wantShards int) (*checkpointFile, error) {
	records, tail := readAllRecords(data, checkpointMagic)
	if tail != nil {
		return nil, fmt.Errorf("fleet: checkpoint damaged: %w", tail)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("fleet: checkpoint has no header")
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(records[0], &hdr); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint header: %w", err)
	}
	if hdr.Version != checkpointVersion {
		return nil, fmt.Errorf("fleet: checkpoint version %d, want %d", hdr.Version, checkpointVersion)
	}
	if hdr.Shard != wantShard || hdr.Shards != wantShards {
		return nil, fmt.Errorf("fleet: checkpoint belongs to shard %d/%d, want %d/%d",
			hdr.Shard, hdr.Shards, wantShard, wantShards)
	}
	out := &checkpointFile{header: hdr}
	seen := make(map[string]bool)
	for i, rest := 0, records[1:]; len(rest) > 0; i++ {
		var d deploymentCheckpoint
		if err := json.Unmarshal(rest[0], &d); err != nil {
			return nil, fmt.Errorf("fleet: checkpoint deployment record %d: %w", i, err)
		}
		if d.Name == "" || seen[d.Name] {
			return nil, fmt.Errorf("fleet: checkpoint deployment record %d has missing or duplicate name", i)
		}
		if d.Frames < 0 || d.Frames > len(rest)-1 {
			return nil, fmt.Errorf("fleet: checkpoint deployment record %d lists %d frames, file holds %d more records",
				i, d.Frames, len(rest)-1)
		}
		d.frames, rest = rest[1:1+d.Frames:1+d.Frames], rest[1+d.Frames:]
		seen[d.Name] = true
		out.deployments = append(out.deployments, d)
	}
	if hdr.Deployments != len(out.deployments) {
		return nil, fmt.Errorf("fleet: checkpoint lists %d deployments, file holds %d",
			hdr.Deployments, len(out.deployments))
	}
	return out, nil
}
