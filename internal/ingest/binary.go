package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sensorguard/internal/obs"
)

// frameBufPool recycles the buffers the binary reader reads frames into,
// one per stream, so steady-state binary ingest allocates no frame-sized
// byte slices.
var frameBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64*1024); return &b }}

// readingSlabPool recycles the []Reading slabs readings are decoded into:
// a slab goes back once the consumer call that saw it returns (see
// Consumer). The float64 value slabs are NOT pooled: the windower
// keeps them.
var readingSlabPool = sync.Pool{New: func() any { return new([]Reading) }}

// putReadingSlab clears a slab's live readings (dropping their references)
// and pools it.
func putReadingSlab(slab *[]Reading, live []Reading) {
	clear(live)
	*slab = (*slab)[:0]
	readingSlabPool.Put(slab)
}

// streamReaderPool recycles the 64 KiB buffered readers the stream readers
// wrap their input in. A reader goes back once the stream reader that used
// it has returned.
var streamReaderPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64*1024) }}

// streamReader returns r as a *bufio.Reader: r itself when it already is
// one (owned=false), else a pooled reader over r that the caller must hand
// back with putStreamReader.
func streamReader(r io.Reader) (br *bufio.Reader, owned bool) {
	if br, ok := r.(*bufio.Reader); ok {
		return br, false
	}
	br = streamReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br, true
}

func putStreamReader(br *bufio.Reader) {
	br.Reset(nil)
	streamReaderPool.Put(br)
}

// readFrames decodes a stream of binary frames from br and submits every
// frame's readings to c, in arrival order, until EOF. One loop on the
// caller's goroutine reads, decodes and submits each frame in turn, so a
// stream holds at most one frame in memory; cross-core parallelism comes
// from concurrent streams and the shards behind c. Any framing fault (bad
// magic, bad length, CRC mismatch, truncation) is fatal to the stream and
// reported as a *FrameError — unlike NDJSON there is no line boundary to
// resync on. Semantically invalid readings inside a well-formed frame are
// counted as rejected and skipped, like undecodable NDJSON lines.
func readFrames(br *bufio.Reader, c Consumer, decode *obs.StageClock, ctx obs.SpanContext, st *StreamStats) error {
	bp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(bp)
	slab := readingSlabPool.Get().(*[]Reading)
	defer putReadingSlab(slab, nil)
	var header [frameHeaderLen]byte
	for frameNo := 1; ; frameNo++ {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil // clean end at a frame boundary
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return &FrameError{Frame: frameNo, Err: errors.New("truncated frame header")}
			}
			return err
		}
		if header[0] != FrameMagic {
			return &FrameError{Frame: frameNo, Err: fmt.Errorf("bad magic 0x%02X", header[0])}
		}
		if header[1] != FrameVersion {
			return &FrameError{Frame: frameNo, Err: fmt.Errorf("unsupported frame version %d", header[1])}
		}
		n := int(binary.LittleEndian.Uint32(header[2:6]))
		if n > MaxFramePayload {
			return &FrameError{Frame: frameNo, Err: fmt.Errorf("payload length %d exceeds %d", n, MaxFramePayload)}
		}
		total := frameHeaderLen + n + frameTrailerLen
		if cap(*bp) < total {
			*bp = make([]byte, total)
		}
		buf := (*bp)[:total]
		copy(buf, header[:])
		if _, err := io.ReadFull(br, buf[frameHeaderLen:]); err != nil {
			return &FrameError{Frame: frameNo, Err: fmt.Errorf("truncated frame body: %w", err)}
		}
		t0 := time.Now()
		readings, rejected, err := DecodeFrameInto(buf, *slab)
		if err != nil {
			// A failed decode may have written into the slab.
			clear((*slab)[:cap(*slab)])
			var fe *FrameError
			if errors.As(err, &fe) {
				// DecodeFrameInto sees one frame at a time; report the
				// ordinal within the stream instead.
				err = &FrameError{Frame: frameNo, Err: fe.Err}
			}
			return err
		}
		decode.Observe(time.Since(t0), uint64(len(readings)+rejected))
		*slab = readings // keep a slab the decode had to grow
		st.Rejected += rejected
		st.RejectedDecode += rejected
		ctx, err = submitReadings(c, readings, ctx, st)
		clear(readings)
		if err != nil {
			return err
		}
	}
}

// submitReadings hands one decoded batch to c in one SubmitBatch call,
// adding the outcome to st. ctx is the stream's span context while no
// reading carrying it has been accepted yet; the first reading submitted
// carries it, and the context comes back cleared once one was accepted.
// rs may be reused as soon as submitReadings returns.
func submitReadings(c Consumer, rs []Reading, ctx obs.SpanContext, st *StreamStats) (obs.SpanContext, error) {
	if len(rs) == 0 {
		return ctx, nil
	}
	if ctx.Valid() {
		rs[0].Trace = ctx
	}
	accepted, dropped, err := c.SubmitBatch(rs)
	st.Accepted += accepted
	st.Dropped += dropped
	if accepted > 0 {
		ctx = obs.SpanContext{} // one stamped reading per sampled stream
	}
	return ctx, err
}
