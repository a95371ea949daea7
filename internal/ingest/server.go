package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"sensorguard/internal/obs"
)

// maxLine bounds one NDJSON line (a reading with a few attributes fits in
// well under 1 KiB; 1 MiB leaves room for wide attribute vectors).
const maxLine = 1 << 20

// StreamStats counts the outcome of one ingest stream (either codec).
type StreamStats struct {
	// Accepted readings were decoded and enqueued.
	Accepted int `json:"accepted"`
	// Rejected is the total of all rejection causes below; it stays the
	// stable field existing shippers read.
	Rejected int `json:"rejected"`
	// RejectedDecode counts lines (or binary-frame readings) that failed to
	// decode or validate.
	RejectedDecode int `json:"rejected_decode"`
	// RejectedOversize counts NDJSON lines over the 1 MiB line bound; the
	// reader resyncs at the next newline and keeps going.
	RejectedOversize int `json:"rejected_oversize"`
	// Dropped readings were shed by the consumer's overflow policy.
	Dropped int `json:"dropped"`
}

// PayloadError reports a client-payload fault in an NDJSON stream — a body
// read error or malformed transport framing. The HTTP handler maps it (and
// *FrameError, its binary-codec sibling) to 400; collector-side submit
// failures stay 503. Line is the 1-based line at which the stream died.
type PayloadError struct {
	Line int
	Err  error
}

func (e *PayloadError) Error() string {
	return fmt.Sprintf("ingest: line %d: %v", e.Line, e.Err)
}

func (e *PayloadError) Unwrap() error { return e.Err }

// StreamOptions carries the optional instrumentation of one ingest stream.
type StreamOptions struct {
	// Tracer records an "ingest.decode" span covering the whole stream —
	// continuing the producer's trace when Parent is a recording context (a
	// stamped traceparent header), starting a sampled root when Parent is
	// zero — and the first accepted reading is stamped with the span's
	// context, so exactly one reading per sampled stream threads the trace
	// through the queue, the windower, and the detector. A nil Tracer (or an
	// explicitly unsampled Parent) records nothing.
	Tracer *obs.Tracer
	Parent obs.SpanContext
	// Decode, when non-nil, accumulates decode time into the ingest_decode
	// stage clock for bottleneck attribution.
	Decode *obs.StageClock
}

// ReadWireStream reads a stream of readings in either wire codec from r and
// submits them to c until EOF, sniffing the first byte: FrameMagic (0xBF,
// never a valid start of JSON or UTF-8 text) selects the binary frame codec,
// anything else — including an empty stream — is NDJSON, which stays the
// default. Undecodable NDJSON lines and invalid readings inside a frame are
// counted, not fatal (one bad producer must not kill a shared socket); a
// framing fault, a body read error, or a consumer error is fatal.
func ReadWireStream(r io.Reader, c Consumer, o StreamOptions) (StreamStats, error) {
	return readStream(r, c, o, false)
}

// readStream is ReadWireStream with the codec sniff skipped when framed is
// set: the stream is then read as binary frames outright. It owns the
// stream's "ingest.decode" span.
func readStream(r io.Reader, c Consumer, o StreamOptions, framed bool) (StreamStats, error) {
	var span *obs.Span
	switch {
	case o.Parent.Recording():
		span = o.Tracer.StartSpan("ingest.decode", o.Parent)
	case !o.Parent.Valid():
		span = o.Tracer.Root("ingest.decode")
	}
	br, owned := streamReader(r)
	if owned {
		defer putStreamReader(br)
	}
	if !framed {
		first, err := br.Peek(1)
		framed = err == nil && first[0] == FrameMagic
	}
	var st StreamStats
	var err error
	if framed {
		span.SetAttr("codec", "binary")
		err = readFrames(br, c, o.Decode, span.Context(), &st)
	} else {
		err = readNDJSON(br, c, o.Decode, span.Context(), &st)
	}
	span.SetInt("accepted", int64(st.Accepted))
	span.SetInt("rejected", int64(st.Rejected))
	span.SetInt("rejected_decode", int64(st.RejectedDecode))
	span.SetInt("rejected_oversize", int64(st.RejectedOversize))
	span.SetInt("dropped", int64(st.Dropped))
	span.End()
	return st, err
}

// ndjsonBatch is how many decoded NDJSON readings the stream reader hands
// the consumer per SubmitBatch call.
const ndjsonBatch = 512

// lineReader yields newline-delimited lines of at most maxLine bytes. A
// longer line is discarded up to its terminating newline and reported as
// oversize — the stream keeps going, so one bad producer line cannot kill a
// shared socket or discard the rest of a batch (bufio.Scanner, which this
// replaces, aborted the whole stream at the first oversized line).
type lineReader struct {
	br  *bufio.Reader
	buf []byte
	eof bool
}

// next returns the next line with its trailing newline (and optional
// carriage return) stripped. oversize reports a discarded too-long line
// (line is nil). err is io.EOF only when the stream is exhausted; a final
// line without a trailing newline is still returned with err == nil.
func (lr *lineReader) next() (line []byte, oversize bool, err error) {
	if lr.eof {
		return nil, false, io.EOF
	}
	lr.buf = lr.buf[:0]
	long := false
	for {
		chunk, rerr := lr.br.ReadSlice('\n')
		if !long {
			if len(lr.buf)+len(chunk) > maxLine+1 { // +1: the delimiter itself
				long = true
				lr.buf = lr.buf[:0]
			} else {
				lr.buf = append(lr.buf, chunk...)
			}
		}
		switch {
		case errors.Is(rerr, bufio.ErrBufferFull):
			continue // keep accumulating (or discarding) to the newline
		case rerr == nil:
			if long {
				return nil, true, nil
			}
			return trimEOL(lr.buf), false, nil
		case errors.Is(rerr, io.EOF):
			lr.eof = true
			if long {
				return nil, true, nil
			}
			if len(lr.buf) == 0 {
				return nil, false, io.EOF
			}
			return trimEOL(lr.buf), false, nil
		default:
			return nil, false, rerr
		}
	}
}

// lineBuffered reports whether a complete line is already buffered, so the
// next call to next returns without reading from the underlying stream.
func (lr *lineReader) lineBuffered() bool {
	buf, _ := lr.br.Peek(lr.br.Buffered())
	return bytes.IndexByte(buf, '\n') >= 0
}

func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// readNDJSON decodes NDJSON readings from br and submits them to c until
// EOF. Decoded readings are staged in batches of up to ndjsonBatch lines,
// one SubmitBatch call each. A partial batch is submitted whenever no
// complete line is buffered — before the reader would wait on the stream,
// so a trickling TCP producer's readings are never held back for more
// input — and before the reader returns, also when a body read fails: every
// line before the failing one is submitted.
//
// The decode clock reads the time twice per batch, as readFrames does per
// frame: when the batch's first line starts decoding and when the batch is
// submitted (or the reader would wait), so it covers line framing and
// decode, and counts the lines decoded.
func readNDJSON(br *bufio.Reader, c Consumer, decode *obs.StageClock, ctx obs.SpanContext, st *StreamStats) error {
	var t0 time.Time
	var lines uint64 // decoded since t0
	slab := readingSlabPool.Get().(*[]Reading)
	if cap(*slab) < ndjsonBatch {
		*slab = make([]Reading, 0, ndjsonBatch)
	}
	batch := (*slab)[:0]
	defer func() { putReadingSlab(slab, batch) }()
	// submit stops the decode clock and hands the staged batch over; the
	// slab is reused afterwards.
	submit := func() error {
		if decode != nil && lines > 0 {
			decode.Observe(time.Since(t0), lines)
		}
		lines = 0
		var err error
		ctx, err = submitReadings(c, batch, ctx, st)
		clear(batch)
		batch = batch[:0]
		return err
	}
	lr := lineReader{br: br}
	lineNo := 0
	var prevDeployment string
	for {
		if lines > 0 && !lr.lineBuffered() {
			if err := submit(); err != nil {
				return err
			}
		}
		line, oversize, rerr := lr.next()
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			if err := submit(); err != nil {
				return err
			}
			return &PayloadError{Line: lineNo + 1, Err: rerr}
		}
		lineNo++
		if oversize {
			st.Rejected++
			st.RejectedOversize++
			continue
		}
		if len(line) == 0 {
			continue
		}
		if decode != nil && lines == 0 {
			t0 = time.Now()
		}
		lines++
		rd, err := decodeLine(line, prevDeployment)
		if err != nil {
			st.Rejected++
			st.RejectedDecode++
			continue
		}
		prevDeployment = rd.Deployment
		if batch = append(batch, rd); len(batch) == ndjsonBatch {
			if err := submit(); err != nil {
				return err
			}
		}
	}
	return submit()
}

// IngestHandlerStaged returns the HTTP handler for POST /ingest: the request
// body is a stream of readings in either wire codec, the response a JSON
// StreamStats. A Traceparent request header joins the stream to the
// producer's trace; without one tr's root sampling applies (tr may be nil).
// Each body's decode time feeds the decode stage clock (nil for none).
//
// Codec negotiation: a FrameContentType request selects the binary frame
// codec outright; any other content type is sniffed by the first body byte
// (the frame magic can never begin NDJSON), with NDJSON the default.
//
// Error contract: client-payload faults — a body read error, transport
// framing gone wrong, a corrupt or truncated binary frame — are 400 with a
// structured JSON body naming the failing line or frame, so a shipper can
// drop the batch instead of retrying it forever. 503 is reserved for
// collector-side submit failures (backpressure, shutdown), which ARE worth
// retrying.
func IngestHandlerStaged(c Consumer, tr *obs.Tracer, decode *obs.StageClock) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var parent obs.SpanContext
		if tr != nil {
			if ctx, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
				parent = ctx
			}
		}
		o := StreamOptions{Tracer: tr, Parent: parent, Decode: decode}
		framed := strings.HasPrefix(r.Header.Get("Content-Type"), FrameContentType)
		st, err := readStream(r.Body, c, o, framed)
		if err != nil {
			writeIngestError(w, st, err)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		_ = enc.Encode(st)
	}
}

// ingestErrorBody is the structured JSON error response for payload faults.
type ingestErrorBody struct {
	Error string `json:"error"`
	// Line is the 1-based NDJSON line the stream failed at (0 for binary).
	Line int `json:"line,omitempty"`
	// Frame is the 1-based binary frame ordinal (0 for NDJSON).
	Frame int `json:"frame,omitempty"`
	// The partial stream outcome before the failure.
	Stats StreamStats `json:"stats"`
}

// writeIngestError maps a stream failure onto the 400-vs-503 contract.
func writeIngestError(w http.ResponseWriter, st StreamStats, err error) {
	var pe *PayloadError
	var fe *FrameError
	body := ingestErrorBody{Error: err.Error(), Stats: st}
	switch {
	case errors.As(err, &pe):
		body.Line = pe.Line
	case errors.As(err, &fe):
		body.Frame = fe.Frame
	default:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusBadRequest)
	_ = json.NewEncoder(w).Encode(body)
}

// DefaultTCPIdleTimeout is how long a TCP ingest connection may sit without
// delivering a byte before it is severed. Gateways batch at window scale, so
// minutes of silence are normal; hours mean a half-open peer.
const DefaultTCPIdleTimeout = 5 * time.Minute

// TCPServer accepts readings in either wire codec on a TCP listener — the
// mote-gateway-facing ingestion path, one stream per connection, whose
// first byte picks the codec.
type TCPServer struct {
	ln   net.Listener
	c    Consumer
	idle time.Duration
	o    StreamOptions
	wg   sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool // set by Close: accept closes any later connection
}

// ServeTCP runs the TCP ingest loop on ln in the background, feeding every
// connection's readings to c. Connections idle longer than idle are
// severed: the read deadline resets on every read, so a live producer is
// never cut off mid-stream while a stalled or half-open client cannot pin
// its goroutine (and the window state behind it) forever. idle <= 0
// disables the deadline; DefaultTCPIdleTimeout suits gateways. Each
// connection's stream is instrumented per o, except that o.Parent is
// ignored: a raw socket has no header channel, so TCP traces always root at
// the collector. Close stops the loop and closes ln.
func ServeTCP(ln net.Listener, c Consumer, idle time.Duration, o StreamOptions) *TCPServer {
	o.Parent = obs.SpanContext{}
	s := &TCPServer{ln: ln, c: c, idle: idle, o: o, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s
}

// idleConn renews the connection's read deadline before every read, turning
// the absolute deadline into an idle timeout.
type idleConn struct {
	conn net.Conn
	idle time.Duration
}

func (c idleConn) Read(p []byte) (int, error) {
	if err := c.conn.SetReadDeadline(time.Now().Add(c.idle)); err != nil {
		return 0, err
	}
	return c.conn.Read(p)
}

// acceptBackoffMax caps the accept-retry backoff. Accept errors short of a
// closed listener (EMFILE under descriptor exhaustion, ECONNABORTED from a
// peer resetting mid-handshake) are transient conditions: exiting on them
// would permanently kill ingestion over a blip, so the loop retries with a
// capped exponential backoff instead, resetting after any successful accept.
const acceptBackoffMax = time.Second

func (s *TCPServer) accept() {
	defer s.wg.Done()
	backoff := time.Duration(0)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // listener closed: the only clean exit
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else {
				backoff = min(backoff*2, acceptBackoffMax)
			}
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			// Accepted after Close walked the open connections: nobody
			// else will close it.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			var r io.Reader = conn
			if s.idle > 0 {
				r = idleConn{conn: conn, idle: s.idle}
			}
			// Both codecs share the socket: the first byte decides.
			_, _ = ReadWireStream(r, s.c, s.o)
		}()
	}
}

// Addr returns the bound listen address (useful with ":0").
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections, severs any still open (an idle
// producer must not stall shutdown), and waits for in-flight streams.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}
