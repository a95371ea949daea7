package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"time"

	"sensorguard/internal/vecmat"
)

// The binary wire format: a length-prefixed frame carrying a batch of
// readings in columnar form, negotiated alongside NDJSON on the same
// listeners (see docs/SERVING.md, "Binary frame format"). The layout favours
// decode speed: deployment keys are interned once per frame, timestamps are
// delta-encoded varints, and attribute values travel as raw float64 columns
// that decode with no parsing at all.
//
//	offset  size  field
//	0       1     magic 0xBF
//	1       1     version 0x01
//	2       4     payload length N, uint32 little-endian
//	6       N     payload (columnar batch, below)
//	6+N     4     CRC32 (IEEE) of the payload, little-endian
//
// Payload:
//
//	uvarint D                      deployment intern table size (≥1)
//	D × (uvarint len, bytes)       deployment keys ("" ⇒ DefaultDeployment)
//	uvarint R                      reading count (≥1)
//	uvarint dim                    attributes per reading; 0 ⇒ ragged, a
//	                               column of R uvarint dims follows
//	R × uvarint                    deployment index column (< D)
//	R × varint(zigzag)             sensor ID column
//	R × varint(zigzag)             seq delta column (delta vs previous row,
//	                               first row vs 0; modular, exact ∀ uint64)
//	R × varint(zigzag)             time delta column (nanoseconds, same rule)
//	float64 columns, little-endian raw bits:
//	    uniform dim: R×dim values, column-major (attribute 0 of every
//	    reading, then attribute 1, …)
//	    ragged: sum(dims) values, row-major
//
// The float columns must consume the payload exactly: trailing bytes are a
// framing error.

const (
	// FrameMagic is the first byte of every binary frame. It can never begin
	// a valid NDJSON reading (0xBF is not valid JSON or UTF-8 start), which
	// is what makes magic-byte sniffing on a shared listener safe.
	FrameMagic = 0xBF
	// FrameVersion is the only payload layout this codec speaks.
	FrameVersion = 0x01
	// FrameContentType negotiates the binary codec on POST /ingest.
	FrameContentType = "application/x-sensorguard-frame"
	// MaxFramePayload bounds one frame's payload so a corrupt or hostile
	// length prefix cannot make the collector allocate gigabytes.
	MaxFramePayload = 8 << 20

	// frameHeaderLen is magic + version + payload length.
	frameHeaderLen = 6
	// frameTrailerLen is the CRC32 trailer.
	frameTrailerLen = 4
	// maxFrameDim bounds one reading's attribute count inside a frame.
	maxFrameDim = 4096
	// maxDeploymentLen bounds one interned deployment key.
	maxDeploymentLen = 4096
)

// FrameError reports a malformed or corrupt binary frame — a client-payload
// fault, never a collector-side one. Framing cannot be trusted past it, so a
// FrameError is fatal to its stream.
type FrameError struct {
	// Frame is the 1-based ordinal of the bad frame within its stream.
	Frame int
	Err   error
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("ingest: frame %d: %v", e.Frame, e.Err)
}

func (e *FrameError) Unwrap() error { return e.Err }

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// FrameEncoder builds one binary frame a reading at a time: Add encodes
// each reading straight into the frame's varint columns and appends its
// values, which rendering lays out as the float columns. A batch that only
// grows is encoded once however often it is rendered. The zero value is
// ready to use; Reset makes it reusable across frames without reallocating.
// Not safe for concurrent use.
type FrameEncoder struct {
	n       int
	dim     int            // values per reading while uniform, 0 once ragged
	deps    []string       // the deployment intern table, in first-seen order
	depIdx  map[string]int // index in deps of every deployment but the first
	depCol  []byte         // the deployment index column; empty while deps holds one
	dims    []byte         // ragged only: the dims column
	sensors []byte
	seqs    []byte
	times   []byte
	values  vecmat.Vector // every reading's values, row-major
	prevSeq uint64
	prevNS  int64
}

// Add encodes r into the frame. Readings keep their order on the wire, and
// r's values are copied. It refuses, and leaves the frame as it was, a
// reading with no values or with a deployment key over maxDeploymentLen
// bytes; it does not check what DecodeFrame merely skips (non-finite
// values, negative time), for which see CheckFrameReading.
func (e *FrameEncoder) Add(r Reading) error { return e.add(&r) }

func (e *FrameEncoder) add(r *Reading) error {
	if len(r.Values) == 0 {
		return errors.New("ingest: reading needs at least one value")
	}
	// The first deployment stays out of depIdx, so a frame of one
	// deployment's readings needs no map and looks none up.
	idx := 0
	if len(e.deps) == 0 || r.Deployment != e.deps[0] {
		var ok bool
		if idx, ok = e.depIdx[r.Deployment]; !ok {
			if len(r.Deployment) > maxDeploymentLen {
				return fmt.Errorf("ingest: deployment key %d bytes long (max %d)", len(r.Deployment), maxDeploymentLen)
			}
			if idx = len(e.deps); idx > 0 {
				if e.depIdx == nil {
					e.depIdx = make(map[string]int, 4)
				}
				e.depIdx[r.Deployment] = idx
			}
			e.deps = append(e.deps, r.Deployment)
		}
	}
	if len(e.deps) > 1 {
		if len(e.depCol) == 0 { // the first deployment's readings so far, index 0
			e.depCol = append(e.depCol, make([]byte, e.n)...)
		}
		e.depCol = binary.AppendUvarint(e.depCol, uint64(idx))
	}
	switch {
	case e.n == 0:
		e.dim = len(r.Values)
	case e.dim > 0 && len(r.Values) != e.dim: // ragged from here on
		for range e.n {
			e.dims = binary.AppendUvarint(e.dims, uint64(e.dim))
		}
		e.dim = 0
	}
	if e.dim == 0 {
		e.dims = binary.AppendUvarint(e.dims, uint64(len(r.Values)))
	}
	e.sensors = binary.AppendUvarint(e.sensors, zigzag(int64(r.Sensor)))
	e.seqs = binary.AppendUvarint(e.seqs, zigzag(int64(r.Seq-e.prevSeq))) // modular delta: exact for all uint64
	e.times = binary.AppendUvarint(e.times, zigzag(int64(r.Time)-e.prevNS))
	e.prevSeq, e.prevNS = r.Seq, int64(r.Time)
	e.values = append(e.values, r.Values...)
	e.n++
	return nil
}

// Len reports the number of readings added since the last Reset.
func (e *FrameEncoder) Len() int { return e.n }

// Reset empties the frame, keeping its buffers.
func (e *FrameEncoder) Reset() {
	clear(e.depIdx)
	e.n, e.prevSeq, e.prevNS = 0, 0, 0
	e.deps, e.depCol, e.dims = e.deps[:0], e.depCol[:0], e.dims[:0]
	e.sensors, e.seqs, e.times, e.values = e.sensors[:0], e.seqs[:0], e.times[:0], e.values[:0]
}

// Frame renders the readings added so far as one complete frame (header,
// columnar payload, CRC trailer) in a newly allocated slice.
func (e *FrameEncoder) Frame() ([]byte, error) { return e.render(nil) }

// AppendFrame resets the encoder, adds rs and appends their frame to dst,
// returning the extended slice: for callers that already hold the readings
// in a slice and own the destination buffer. On error dst is returned
// unextended.
func (e *FrameEncoder) AppendFrame(dst []byte, rs []Reading) ([]byte, error) {
	e.Reset()
	for i := range rs {
		if err := e.add(&rs[i]); err != nil {
			return dst, err
		}
	}
	return e.render(dst)
}

// render appends the frame of the readings added so far to dst.
func (e *FrameEncoder) render(dst []byte) ([]byte, error) {
	if e.n == 0 {
		return dst, errors.New("ingest: empty frame")
	}
	size := frameHeaderLen + 3*binary.MaxVarintLen64 + len(e.dims) + max(e.n, len(e.depCol)) +
		len(e.sensors) + len(e.seqs) + len(e.times) + 8*len(e.values) + frameTrailerLen
	for _, d := range e.deps {
		size += binary.MaxVarintLen64 + len(d)
	}
	start := len(dst)
	p := append(slices.Grow(dst, size), make([]byte, frameHeaderLen)...) // header placeholder
	p = binary.AppendUvarint(p, uint64(len(e.deps)))
	for _, d := range e.deps {
		p = binary.AppendUvarint(p, uint64(len(d)))
		p = append(p, d...)
	}
	p = binary.AppendUvarint(p, uint64(e.n))
	p = binary.AppendUvarint(p, uint64(e.dim))
	p = append(p, e.dims...)
	if len(e.deps) == 1 {
		p = append(p, make([]byte, e.n)...) // every deployment index is 0, one byte
	} else {
		p = append(p, e.depCol...)
	}
	p = append(p, e.sensors...)
	p = append(p, e.seqs...)
	p = append(p, e.times...)
	// Uniform dims go column-major (attribute a of every reading, then
	// attribute a+1), ragged ones row-major as the values were added.
	for a := range max(e.dim, 1) {
		for i := a; i < len(e.values); i += max(e.dim, 1) {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(e.values[i]))
		}
	}
	payload := p[start+frameHeaderLen:]
	if len(payload) > MaxFramePayload {
		return dst, fmt.Errorf("ingest: frame payload %d bytes (max %d)", len(payload), MaxFramePayload)
	}
	p[start] = FrameMagic
	p[start+1] = FrameVersion
	binary.LittleEndian.PutUint32(p[start+2:start+6], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(p, crc32.ChecksumIEEE(payload)), nil
}

// CheckFrameReading reports why DecodeFrame would refuse r after it went
// through a frame, or nil when r round-trips intact: the semantic checks
// DecodeFrame applies (non-negative time, at least one value, every value
// finite) plus the structural bounds on attribute count and deployment key
// length. An empty deployment key is accepted, but note that it decodes as
// DefaultDeployment.
func CheckFrameReading(r *Reading) error {
	if r.Time < 0 {
		return fmt.Errorf("ingest: time %v is negative", r.Time)
	}
	if len(r.Values) == 0 {
		return errors.New("ingest: reading needs at least one value")
	}
	if len(r.Values) > maxFrameDim {
		return fmt.Errorf("ingest: %d values (max %d)", len(r.Values), maxFrameDim)
	}
	for i, v := range r.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ingest: value %d is not finite", i)
		}
	}
	if len(r.Deployment) > maxDeploymentLen {
		return fmt.Errorf("ingest: deployment key %d bytes long (max %d)", len(r.Deployment), maxDeploymentLen)
	}
	return nil
}

// EncodeFrame renders readings as one binary frame. For repeated batches,
// reuse a FrameEncoder instead.
func EncodeFrame(rs []Reading) ([]byte, error) {
	var e FrameEncoder
	return e.AppendFrame(nil, rs)
}

// DecodeFrame parses one complete frame (header through CRC trailer) into
// its readings. Structurally invalid or corrupt frames return a *FrameError;
// readings that fail semantic validation (non-finite values, negative time)
// are skipped and counted in rejected, mirroring the NDJSON codec's
// tolerance. Returned Values slices are freshly allocated per frame and do
// not alias data.
func DecodeFrame(frame []byte) (readings []Reading, rejected int, err error) {
	return DecodeFrameInto(frame, nil)
}

// DecodeFrameInto is DecodeFrame decoding into dst's backing array when it
// is large enough (dst's contents are overwritten), so a caller that owns
// the slab can reuse it across frames. The Values slices are still freshly
// allocated per frame: the windower keeps them.
func DecodeFrameInto(frame []byte, dst []Reading) (readings []Reading, rejected int, err error) {
	if len(frame) < frameHeaderLen+frameTrailerLen {
		return nil, 0, &FrameError{Frame: 1, Err: errors.New("truncated frame")}
	}
	if frame[0] != FrameMagic {
		return nil, 0, &FrameError{Frame: 1, Err: fmt.Errorf("bad magic 0x%02X", frame[0])}
	}
	if frame[1] != FrameVersion {
		return nil, 0, &FrameError{Frame: 1, Err: fmt.Errorf("unsupported frame version %d", frame[1])}
	}
	n := int(binary.LittleEndian.Uint32(frame[2:6]))
	if n > MaxFramePayload {
		return nil, 0, &FrameError{Frame: 1, Err: fmt.Errorf("payload length %d exceeds %d", n, MaxFramePayload)}
	}
	if len(frame) != frameHeaderLen+n+frameTrailerLen {
		return nil, 0, &FrameError{Frame: 1, Err: fmt.Errorf("frame is %d bytes, header says %d", len(frame), frameHeaderLen+n+frameTrailerLen)}
	}
	payload := frame[frameHeaderLen : frameHeaderLen+n]
	want := binary.LittleEndian.Uint32(frame[frameHeaderLen+n:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, 0, &FrameError{Frame: 1, Err: fmt.Errorf("CRC mismatch: payload %08x, trailer %08x", got, want)}
	}
	readings, rejected, derr := decodeFramePayload(payload, dst)
	if derr != nil {
		return nil, 0, &FrameError{Frame: 1, Err: derr}
	}
	return readings, rejected, nil
}

// decodeFramePayload decodes a CRC-verified columnar payload. Structural
// faults (bad varints, out-of-range indices, lengths that disagree with the
// payload size) error out; semantically invalid readings are dropped and
// counted, like undecodable NDJSON lines. Readings land in dst's backing
// array when it is large enough.
func decodeFramePayload(payload []byte, dst []Reading) ([]Reading, int, error) {
	pos := 0
	uv := func(what string) (uint64, error) {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("bad varint in %s column at offset %d", what, pos)
		}
		pos += n
		return v, nil
	}

	depCount, err := uv("deployment table")
	if err != nil {
		return nil, 0, err
	}
	if depCount == 0 || depCount > uint64(len(payload)) {
		return nil, 0, fmt.Errorf("deployment table size %d out of range", depCount)
	}
	deps := make([]string, depCount)
	for i := range deps {
		l, err := uv("deployment length")
		if err != nil {
			return nil, 0, err
		}
		if l > maxDeploymentLen {
			return nil, 0, fmt.Errorf("deployment key %d bytes long (max %d)", l, maxDeploymentLen)
		}
		if uint64(len(payload)-pos) < l {
			return nil, 0, errors.New("deployment table overruns payload")
		}
		name := string(payload[pos : pos+int(l)])
		pos += int(l)
		if name == "" {
			name = DefaultDeployment
		}
		deps[i] = name
	}

	count, err := uv("reading count")
	if err != nil {
		return nil, 0, err
	}
	// Every reading costs at least one byte per varint column, so a count
	// beyond the remaining payload is structurally impossible — reject it
	// before sizing any allocation by it.
	if count == 0 || count > uint64(len(payload)-pos) {
		return nil, 0, fmt.Errorf("reading count %d out of range", count)
	}
	r := int(count)
	dim, err := uv("dim")
	if err != nil {
		return nil, 0, err
	}
	if dim > maxFrameDim {
		return nil, 0, fmt.Errorf("dim %d exceeds %d", dim, maxFrameDim)
	}

	// Ragged frames carry a dims column; uniform ones need no per-reading
	// dims at all.
	var dims []int
	total := r * int(dim)
	if dim == 0 {
		dims = make([]int, r)
		for i := range dims {
			d, err := uv("dims")
			if err != nil {
				return nil, 0, err
			}
			if d == 0 || d > maxFrameDim {
				return nil, 0, fmt.Errorf("reading %d dim %d out of range", i, d)
			}
			dims[i] = int(d)
			total += int(d)
		}
	}
	if total > (len(payload)-pos)/8+1 {
		return nil, 0, fmt.Errorf("value count %d overruns payload", total)
	}

	readings := slices.Grow(dst[:0], r)[:r]
	clear(readings) // a reused slab may hold an earlier frame's readings
	for i := range readings {
		idx, err := uv("deployment index")
		if err != nil {
			return nil, 0, err
		}
		if idx >= depCount {
			return nil, 0, fmt.Errorf("reading %d deployment index %d out of range", i, idx)
		}
		readings[i].Deployment = deps[idx]
	}
	for i := range readings {
		s, err := uv("sensor")
		if err != nil {
			return nil, 0, err
		}
		readings[i].Sensor = int(unzigzag(s))
	}
	var prevSeq uint64
	for i := range readings {
		d, err := uv("seq")
		if err != nil {
			return nil, 0, err
		}
		prevSeq += uint64(unzigzag(d))
		readings[i].Seq = prevSeq
	}
	var prevNS int64
	for i := range readings {
		d, err := uv("time")
		if err != nil {
			return nil, 0, err
		}
		prevNS += unzigzag(d)
		readings[i].Time = time.Duration(prevNS)
	}

	if len(payload)-pos != 8*total {
		return nil, 0, fmt.Errorf("value block is %d bytes, columns need %d", len(payload)-pos, 8*total)
	}
	// One slab per frame: every reading's vector slices it, so a frame of N
	// readings costs one float64 allocation, not N.
	slab := make(vecmat.Vector, total)
	off := 0
	for i := range readings {
		d := int(dim)
		if dims != nil {
			d = dims[i]
		}
		readings[i].Values = slab[off : off+d : off+d]
		off += d
	}
	if dim > 0 {
		// Transpose the column-major wire layout into per-reading vectors.
		for a := 0; a < int(dim); a++ {
			for i := range readings {
				bits := binary.LittleEndian.Uint64(payload[pos:])
				pos += 8
				readings[i].Values[a] = math.Float64frombits(bits)
			}
		}
	} else {
		for i := range readings {
			for a := range readings[i].Values {
				bits := binary.LittleEndian.Uint64(payload[pos:])
				pos += 8
				readings[i].Values[a] = math.Float64frombits(bits)
			}
		}
	}

	// Semantic validation, mirroring DecodeLine: drop (and count) readings
	// that would poison the detector, keep the rest of the frame.
	kept := 0
	for i := range readings {
		if CheckFrameReading(&readings[i]) != nil {
			continue
		}
		if kept != i {
			readings[kept] = readings[i]
		}
		kept++
	}
	clear(readings[kept:])
	return readings[:kept], r - kept, nil
}
