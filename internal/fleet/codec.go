package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sensorguard/internal/chaos"
)

// On-disk framing shared by journals and checkpoints: a short magic line
// identifying the file kind, followed by length-prefixed, CRC32-guarded
// records:
//
//	uint32 LE payload length ‖ uint32 LE CRC32-IEEE(payload) ‖ payload
//
// A torn tail — the partial record a crash leaves behind — fails either the
// length read or the CRC and is treated as end-of-file, never as data. The
// two file kinds differ in how much tail damage they tolerate: journals keep
// every record before the first bad frame (the tail is exactly what the
// crash cut off), checkpoints must decode completely or not at all (a half
// checkpoint is not a consistent state).
const (
	journalMagic    = "sgwal2\n"  // binary batch records (journal.go)
	checkpointMagic = "sgckpt2\n" // buffered readings as frame records (checkpoint.go)

	// maxRecordLen bounds a single record so a corrupted length prefix
	// cannot drive an allocation by gigabytes. Checkpoint records carry a
	// whole deployment snapshot, so the bound is generous.
	maxRecordLen = 64 << 20
)

var crcTable = crc32.IEEETable

// ErrRetiredFormat reports a journal segment or checkpoint written in a
// format this release no longer reads. Recovery refuses the file rather than
// skip it: skipping would fall back to older state, or none, without a word.
var ErrRetiredFormat = errors.New("fleet: retired on-disk format")

// refuseRetired fails with ErrRetiredFormat, naming path, when data begins
// with the magic of a retired format: the JSON journal or the JSON-readings
// checkpoint.
func refuseRetired(path string, data []byte) error {
	for _, magic := range []string{"sgwal1\n", "sgckpt1\n"} {
		if bytes.HasPrefix(data, []byte(magic)) {
			return fmt.Errorf("%w: %s is %s; drain it with a release that still reads %s, then recover with this one",
				ErrRetiredFormat, path, magic[:len(magic)-1], magic[:len(magic)-1])
		}
	}
	return nil
}

// fileKind is one kind of file in a shard directory, named prefix, sixteen
// hex digits of sequence, suffix.
type fileKind struct{ prefix, suffix string }

var (
	journalFiles    = fileKind{"journal-", ".wal"}     // sequence: the segment's base
	checkpointFiles = fileKind{"checkpoint-", ".ckpt"} // sequence: the last one the state covers
)

// shardFile is one file of a kind, identified by the sequence in its name.
type shardFile struct {
	path string
	seq  uint64
}

func (k fileKind) path(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", k.prefix, seq, k.suffix))
}

// list returns dir's files of this kind in ascending sequence order. Names
// that do not parse, leftover .tmp files among them, are ignored; a missing
// directory holds no files.
func (k fileKind) list(fsys chaos.FS, dir string) ([]shardFile, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []shardFile
	for _, e := range entries {
		hexPart, ok := strings.CutPrefix(e.Name(), k.prefix)
		if !ok {
			continue
		}
		if hexPart, ok = strings.CutSuffix(hexPart, k.suffix); !ok {
			continue
		}
		seq, err := strconv.ParseUint(hexPart, 16, 64)
		if err != nil {
			continue
		}
		out = append(out, shardFile{path: filepath.Join(dir, e.Name()), seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// errCorrupt reports a record that failed framing validation.
var errCorrupt = errors.New("fleet: corrupt record")

// appendRecord frames payload into buf and returns the extended buffer.
func appendRecord(buf, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// nextRecord splits one framed record off the front of data. It returns
// io.EOF at a clean end of data and errCorrupt (wrapped) for a torn or
// damaged frame. The payload aliases data; nothing is copied.
func nextRecord(data []byte) (payload, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, io.EOF
	}
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("%w: torn header", errCorrupt)
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n > maxRecordLen {
		return nil, nil, fmt.Errorf("%w: record length %d exceeds bound", errCorrupt, n)
	}
	if int64(n) > int64(len(data)-8) {
		return nil, nil, fmt.Errorf("%w: torn payload (%d of %d bytes)", errCorrupt, len(data)-8, n)
	}
	payload = data[8 : 8+n]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	return payload, data[8+n:], nil
}

// readAllRecords verifies the magic and reads records until the clean end of
// file or the first damaged frame. It returns the intact prefix and whether
// the file ended cleanly (tail == nil) or in damage (tail != nil, the error
// describing it). Records alias data.
func readAllRecords(data []byte, magic string) (records [][]byte, tail error) {
	if !bytes.HasPrefix(data, []byte(magic)) {
		return nil, fmt.Errorf("fleet: bad magic, want %q", magic)
	}
	data = data[len(magic):]
	for {
		rec, rest, err := nextRecord(data)
		if err == io.EOF {
			return records, nil
		}
		if err != nil {
			return records, err
		}
		records = append(records, rec)
		data = rest
	}
}
