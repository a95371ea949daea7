package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"sensorguard/internal/obs"
)

// The binary ingest path decodes frames in parallel: one reader goroutine
// slices the stream into frames and hands them to a process-wide bounded
// worker pool, while the stream's own goroutine submits each frame's
// readings strictly in arrival order. Ordering is preserved by a bounded
// channel of per-frame result channels — frames decode out of order across
// cores, but their readings reach the consumer (and therefore each
// deployment's shard queue) in the order they arrived on the socket.

// BatchConsumer is a Consumer that can take a whole batch of readings in
// one call. Both stream readers prefer it: the binary path submits one
// decoded frame per call and the NDJSON path up to ndjsonBatch lines, one
// intake lock acquisition per batch instead of per reading. accepted+dropped
// covers the prefix actually processed; a non-nil error is terminal, as with
// Submit.
//
// Ownership: rs, the slice and its Reading structs, is valid only during
// SubmitBatch — the readers reuse it for the next batch — so a consumer
// copies what it keeps. Each reading's Values slice is the consumer's to
// keep forever: no reader ever reuses or rewrites value storage.
type BatchConsumer interface {
	Consumer
	SubmitBatch(rs []Reading) (accepted, dropped int, err error)
}

var (
	decodeMu       sync.Mutex
	decodeOnce     sync.Once
	decodeSetting  int // 0 ⇒ GOMAXPROCS at start
	decodeStarted  int
	decodeJobQueue chan decodeJob
)

// SetDecodeWorkers sets the size of the process-wide binary frame decode
// pool. n <= 0 means one worker per GOMAXPROCS. The pool starts lazily with
// the first binary stream; calls after that have no effect.
func SetDecodeWorkers(n int) {
	decodeMu.Lock()
	decodeSetting = n
	decodeMu.Unlock()
}

// decodePool returns the shared job queue and the worker count, starting the
// workers on first use.
func decodePool() (chan decodeJob, int) {
	decodeOnce.Do(func() {
		decodeMu.Lock()
		n := decodeSetting
		decodeMu.Unlock()
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		decodeJobQueue = make(chan decodeJob, n)
		decodeStarted = n
		for i := 0; i < n; i++ {
			go decodeWorker(decodeJobQueue)
		}
	})
	return decodeJobQueue, decodeStarted
}

// frameBufPool recycles raw frame buffers between the stream reader and the
// decode workers, so steady-state binary ingest allocates no frame-sized
// byte slices.
var frameBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64*1024); return &b }}

// readingSlabPool recycles the []Reading slabs readings are decoded into:
// a slab goes back once the consumer call that saw it returns (see
// BatchConsumer). The float64 value slabs are NOT pooled: the windower
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
// wrap their input in. A reader goes back only once nothing — the binary
// path's reader goroutine included — can touch it again.
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

type decodeJob struct {
	buf     *[]byte // pooled; the worker returns it after decoding
	frameNo int     // 1-based ordinal within its stream, for error reports
	out     chan<- decodeResult
}

type decodeResult struct {
	readings []Reading
	slab     *[]Reading // pooled backing of readings; nil on error
	rejected int
	busy     time.Duration
	err      error // *FrameError on a structurally bad frame
}

func decodeWorker(jobs <-chan decodeJob) {
	for j := range jobs {
		t0 := time.Now()
		slab := readingSlabPool.Get().(*[]Reading)
		readings, rejected, err := decodeFrameInto(*j.buf, *slab)
		busy := time.Since(t0)
		frameBufPool.Put(j.buf)
		if err != nil {
			// A failed decode may have written into the slab.
			putReadingSlab(slab, (*slab)[:cap(*slab)])
			slab = nil
			var fe *FrameError
			if errors.As(err, &fe) {
				// decodeFrameInto sees one frame at a time; report the
				// ordinal within the stream instead.
				err = &FrameError{Frame: j.frameNo, Err: fe.Err}
			}
		} else {
			*slab = readings // keep a slab the decode had to grow
		}
		j.out <- decodeResult{readings: readings, slab: slab, rejected: rejected, busy: busy, err: err}
	}
}

// ReadBinaryStream decodes a stream of binary frames from r and submits
// every frame's readings to c, in arrival order, until EOF. Frames decode in
// parallel on the shared worker pool. Any framing fault (bad magic, bad
// length, CRC mismatch, truncation) is fatal to the stream and reported as a
// *FrameError — unlike NDJSON there is no line boundary to resync on.
// Semantically invalid readings inside a well-formed frame are counted as
// rejected and skipped, like undecodable NDJSON lines.
func ReadBinaryStream(r io.Reader, c Consumer, o StreamOptions) (StreamStats, error) {
	var span *obs.Span
	switch {
	case o.Parent.Recording():
		span = o.Tracer.StartSpan("ingest.decode", o.Parent)
	case !o.Parent.Valid():
		span = o.Tracer.Root("ingest.decode")
	}
	span.SetAttr("codec", "binary")
	ctx := span.Context()

	br, owned := streamReader(r)
	if owned {
		// Deferred first, so it runs last: after every return path has
		// waited for the reader goroutine to exit.
		defer putStreamReader(br)
	}

	jobs, workers := decodePool()
	// The in-order spine: the reader pushes each frame's result channel here
	// before dispatching its decode, the submitter drains it sequentially.
	// Its capacity bounds decoded-but-unsubmitted frames end to end.
	results := make(chan chan decodeResult, workers+2)
	done := make(chan struct{})
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(done) }) }
	defer stop()
	readErr := make(chan error, 1)

	go func() {
		defer close(results)
		frameNo := 0
		var header [frameHeaderLen]byte
		for {
			if _, err := io.ReadFull(br, header[:]); err != nil {
				if errors.Is(err, io.EOF) {
					readErr <- nil // clean end at a frame boundary
				} else if errors.Is(err, io.ErrUnexpectedEOF) {
					readErr <- &FrameError{Frame: frameNo + 1, Err: errors.New("truncated frame header")}
				} else {
					readErr <- err
				}
				return
			}
			frameNo++
			if header[0] != FrameMagic {
				readErr <- &FrameError{Frame: frameNo, Err: fmt.Errorf("bad magic 0x%02X", header[0])}
				return
			}
			if header[1] != FrameVersion {
				readErr <- &FrameError{Frame: frameNo, Err: fmt.Errorf("unsupported frame version %d", header[1])}
				return
			}
			n := int(binary.LittleEndian.Uint32(header[2:6]))
			if n > MaxFramePayload {
				readErr <- &FrameError{Frame: frameNo, Err: fmt.Errorf("payload length %d exceeds %d", n, MaxFramePayload)}
				return
			}
			bp := frameBufPool.Get().(*[]byte)
			total := frameHeaderLen + n + frameTrailerLen
			if cap(*bp) < total {
				*bp = make([]byte, total)
			}
			buf := (*bp)[:total]
			*bp = buf
			copy(buf, header[:])
			if _, err := io.ReadFull(br, buf[frameHeaderLen:]); err != nil {
				frameBufPool.Put(bp)
				readErr <- &FrameError{Frame: frameNo, Err: fmt.Errorf("truncated frame body: %w", err)}
				return
			}
			out := make(chan decodeResult, 1)
			select {
			case results <- out: // in order, before the decode can complete
			case <-done:
				frameBufPool.Put(bp)
				readErr <- nil
				return
			}
			select {
			case jobs <- decodeJob{buf: bp, frameNo: frameNo, out: out}:
			case <-done:
				out <- decodeResult{} // unblock the (exiting) submitter
				frameBufPool.Put(bp)
				readErr <- nil
				return
			}
		}
	}()

	var st StreamStats
	fail := func(err error) (StreamStats, error) {
		// Stop the reader, then drain so no result channel is left holding a
		// reference; workers never block (each out has capacity 1).
		stop()
		for range results {
		}
		<-readErr
		finishDecodeSpan(span, st)
		return st, err
	}
	for out := range results {
		res := <-out
		if res.err != nil {
			return fail(res.err)
		}
		o.Decode.Observe(res.busy, uint64(len(res.readings)+res.rejected))
		st.Rejected += res.rejected
		st.RejectedDecode += res.rejected
		var err error
		ctx, err = submitReadings(c, res.readings, ctx, &st)
		putReadingSlab(res.slab, res.readings)
		if err != nil {
			return fail(err)
		}
	}
	err := <-readErr
	finishDecodeSpan(span, st)
	if err != nil {
		return st, err
	}
	return st, nil
}

// submitReadings hands one decoded batch to c — in one SubmitBatch call
// when c is a BatchConsumer, else reading by reading — adding the outcome
// to st. ctx is the stream's span context while no
// reading carrying it has been accepted yet; the first reading submitted
// carries it, and the context comes back cleared once one was accepted.
// rs may be reused as soon as submitReadings returns.
func submitReadings(c Consumer, rs []Reading, ctx obs.SpanContext, st *StreamStats) (obs.SpanContext, error) {
	if len(rs) == 0 {
		return ctx, nil
	}
	if bc, ok := c.(BatchConsumer); ok {
		if ctx.Valid() {
			rs[0].Trace = ctx
		}
		accepted, dropped, err := bc.SubmitBatch(rs)
		st.Accepted += accepted
		st.Dropped += dropped
		if accepted > 0 {
			ctx = obs.SpanContext{} // one stamped reading per sampled stream
		}
		return ctx, err
	}
	for _, rd := range rs {
		rd.Trace = ctx
		switch err := c.Submit(rd); {
		case err == nil:
			st.Accepted++
			ctx = obs.SpanContext{}
		case errors.Is(err, ErrDropped):
			st.Dropped++
		default:
			return ctx, err
		}
	}
	return ctx, nil
}

// ReadWireStream reads a stream of readings in either wire codec, sniffing
// the first byte: FrameMagic (0xBF, never a valid start of JSON or UTF-8
// text) selects the binary frame codec, anything else — including an empty
// stream — is NDJSON, which stays the default. This is the entry point for
// transports with no content-type channel (TCP sockets, file replay).
func ReadWireStream(r io.Reader, c Consumer, o StreamOptions) (StreamStats, error) {
	br, owned := streamReader(r)
	if owned {
		defer putStreamReader(br)
	}
	if first, err := br.Peek(1); err == nil && first[0] == FrameMagic {
		return ReadBinaryStream(br, c, o)
	}
	return ReadStreamOpts(br, c, o)
}
