package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// countingConsumer is a collectConsumer that also counts its SubmitBatch
// calls.
type countingConsumer struct {
	collectConsumer
	batches int
}

func (c *countingConsumer) SubmitBatch(rs []Reading) (int, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readings = append(c.readings, rs...)
	c.batches++
	return len(rs), 0, nil
}

func wireReadingAt(i int) Reading {
	return Reading{
		Deployment: "dep-" + string(rune('a'+i%3)),
		Seq:        uint64(i + 1),
		Reading: sensor.Reading{
			Sensor: i % 10,
			Time:   time.Duration(i) * time.Second,
			Values: vecmat.Vector{12.5 + float64(i), 94 - float64(i)},
		},
	}
}

// encodeFrames renders n readings as frames of the given batch size.
func encodeFrames(t *testing.T, n, batch int) ([]byte, []Reading) {
	t.Helper()
	var buf bytes.Buffer
	var all []Reading
	var enc FrameEncoder
	for i := 0; i < n; i++ {
		r := wireReadingAt(i)
		all = append(all, r)
		enc.Add(r)
		if enc.Len() >= batch || i == n-1 {
			frame, err := enc.Frame()
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(frame)
			enc.Reset()
		}
	}
	return buf.Bytes(), all
}

// TestReadBinaryStreamPreservesOrder is the binary reader's ordering
// contract: readings reach the consumer in exact arrival order, across
// frames and within each frame.
func TestReadBinaryStreamPreservesOrder(t *testing.T) {
	const n = 5000
	stream, want := encodeFrames(t, n, 100) // 50 frames in flight
	sink := &collectConsumer{}
	st, err := ReadWireStream(bytes.NewReader(stream), sink, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != n || st.Rejected != 0 || st.Dropped != 0 {
		t.Fatalf("stats %+v, want %d accepted", st, n)
	}
	if len(sink.readings) != n {
		t.Fatalf("consumer got %d readings, want %d", len(sink.readings), n)
	}
	for i, got := range sink.readings {
		got.Trace = want[i].Trace
		if !readingEqual(got, want[i]) {
			t.Fatalf("reading %d out of order or mangled: got %+v, want %+v", i, got, want[i])
		}
	}
}

// TestReadBinaryStreamOneBatchPerFrame: each frame reaches the consumer in
// one SubmitBatch call.
func TestReadBinaryStreamOneBatchPerFrame(t *testing.T) {
	stream, want := encodeFrames(t, 1000, 250)
	sink := &countingConsumer{}
	st, err := ReadWireStream(bytes.NewReader(stream), sink, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != len(want) {
		t.Fatalf("accepted %d, want %d", st.Accepted, len(want))
	}
	if sink.batches != 4 {
		t.Fatalf("submitted in %d batches, want 4", sink.batches)
	}
}

// goroutineConsumer records the process's goroutine count inside every
// SubmitBatch call.
type goroutineConsumer struct {
	peak, batches int
}

func (c *goroutineConsumer) SubmitBatch(rs []Reading) (int, int, error) {
	c.peak = max(c.peak, runtime.NumGoroutine())
	c.batches++
	return len(rs), 0, nil
}

// TestReadBinaryStreamRunsOnCallerGoroutine pins the stream readers'
// design: both codecs read, decode and submit on the goroutine that called
// ReadWireStream and start no goroutine of their own, so no SubmitBatch
// call sees more goroutines than were running before the stream began.
func TestReadBinaryStreamRunsOnCallerGoroutine(t *testing.T) {
	frames, _ := encodeFrames(t, 64*50, 50)
	var ndjson []byte
	for i := 0; i < 2000; i++ {
		ndjson = append(ndjson, ingestLine(t, i)...)
	}
	for _, tc := range []struct {
		codec  string
		stream []byte
		n      int
	}{
		{"binary", frames, 64 * 50},
		{"ndjson", ndjson, 2000},
	} {
		sink := &goroutineConsumer{}
		before := runtime.NumGoroutine()
		st, err := ReadWireStream(bytes.NewReader(tc.stream), sink, StreamOptions{})
		if err != nil || st.Accepted != tc.n {
			t.Fatalf("%s: accepted %d of %d: %v", tc.codec, st.Accepted, tc.n, err)
		}
		if sink.batches == 0 || sink.peak > before {
			t.Fatalf("%s: %d goroutines inside SubmitBatch (over %d batches), %d before the stream: the reader started goroutines",
				tc.codec, sink.peak, sink.batches, before)
		}
	}
}

func TestReadBinaryStreamCorruptFrameFatal(t *testing.T) {
	stream, _ := encodeFrames(t, 600, 200)
	mutated := append([]byte(nil), stream...)
	mutated[len(mutated)-3] ^= 0x10 // corrupt the last frame's payload
	sink := &collectConsumer{}
	st, err := ReadWireStream(bytes.NewReader(mutated), sink, StreamOptions{})
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("err %v, want *FrameError", err)
	}
	if fe.Frame != 3 {
		t.Fatalf("failed frame %d, want 3", fe.Frame)
	}
	// The healthy prefix was still delivered in order.
	if st.Accepted != 400 || sink.count() != 400 {
		t.Fatalf("accepted %d (consumer %d), want the 400 readings before the bad frame", st.Accepted, sink.count())
	}
}

func TestReadBinaryStreamTruncatedFatal(t *testing.T) {
	stream, _ := encodeFrames(t, 100, 100)
	_, err := ReadWireStream(bytes.NewReader(stream[:len(stream)-4]), &collectConsumer{}, StreamOptions{})
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("err %v, want *FrameError", err)
	}
}

func TestReadWireStreamSniffsCodec(t *testing.T) {
	// Binary first byte routes to the frame decoder.
	stream, want := encodeFrames(t, 10, 10)
	sink := &collectConsumer{}
	if _, err := ReadWireStream(bytes.NewReader(stream), sink, StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if sink.count() != len(want) {
		t.Fatalf("binary sniff delivered %d readings, want %d", sink.count(), len(want))
	}
	// Anything else is NDJSON, the default.
	sink = &collectConsumer{}
	if _, err := ReadWireStream(bytes.NewReader(ingestLine(t, 1)), sink, StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 1 {
		t.Fatalf("NDJSON sniff delivered %d readings, want 1", sink.count())
	}
	// Empty stream: NDJSON path, zero stats, no error.
	st, err := ReadWireStream(bytes.NewReader(nil), &collectConsumer{}, StreamOptions{})
	if err != nil || st.Accepted != 0 {
		t.Fatalf("empty stream: %+v, %v", st, err)
	}
}

func TestTCPServerAcceptsBinaryFrames(t *testing.T) {
	sink := &collectConsumer{}
	srv := ServeTCP(listenTCP(t), sink, DefaultTCPIdleTimeout, StreamOptions{})
	defer srv.Close()
	stream, want := encodeFrames(t, 300, 100)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, 5*time.Second, func() bool { return sink.count() == len(want) },
		"binary readings never arrived over TCP")
}

// TestIngestHandlerBinaryContentType drives the HTTP negotiation leg: the
// frame content type selects the binary codec, and the response carries the
// split rejection stats.
func TestIngestHandlerBinaryContentType(t *testing.T) {
	sink := &countingConsumer{}
	srv := httptest.NewServer(IngestHandlerStaged(sink, nil, nil))
	defer srv.Close()
	stream, want := encodeFrames(t, 800, 200)
	resp, err := http.Post(srv.URL, FrameContentType, bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st StreamStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != len(want) || st.Rejected != 0 {
		t.Fatalf("stats %+v, want %d accepted", st, len(want))
	}
	if sink.batches == 0 {
		t.Fatal("handler did not use the batch submit path")
	}
}

// TestIngestHandlerSniffsBinaryWithoutContentType: a frame body posted with
// a generic content type still decodes via the magic-byte sniff.
func TestIngestHandlerSniffsBinaryWithoutContentType(t *testing.T) {
	sink := &collectConsumer{}
	srv := httptest.NewServer(IngestHandlerStaged(sink, nil, nil))
	defer srv.Close()
	stream, want := encodeFrames(t, 50, 50)
	resp, err := http.Post(srv.URL, "application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if sink.count() != len(want) {
		t.Fatalf("delivered %d readings, want %d", sink.count(), len(want))
	}
}

// TestIngestHandlerCorruptFrameIs400 is the error-status contract: a corrupt
// frame is the client's fault — 400 with a structured body naming the frame,
// never 503 (which would make shippers retry an unpayable batch forever).
func TestIngestHandlerCorruptFrameIs400(t *testing.T) {
	srv := httptest.NewServer(IngestHandlerStaged(&collectConsumer{}, nil, nil))
	defer srv.Close()
	stream, _ := encodeFrames(t, 100, 50)
	mutated := append([]byte(nil), stream...)
	mutated[len(mutated)-2] ^= 0x01
	resp, err := http.Post(srv.URL, FrameContentType, bytes.NewReader(mutated))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
		Frame int    `json:"frame"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Frame != 2 || body.Error == "" {
		t.Fatalf("error body %+v, want frame 2 named", body)
	}
}

// errConsumer fails every submit with a terminal (non-drop) error — the
// shape of a draining pool.
type errConsumer struct{ err error }

func (c errConsumer) SubmitBatch([]Reading) (int, int, error) { return 0, 0, c.err }

// TestIngestHandlerConsumerErrorIs503: collector-side submit failures keep
// the retryable status.
func TestIngestHandlerConsumerErrorIs503(t *testing.T) {
	closed := errors.New("fleet: pool is draining")
	srv := httptest.NewServer(IngestHandlerStaged(errConsumer{err: closed}, nil, nil))
	defer srv.Close()
	for _, body := range []io.Reader{
		bytes.NewReader(ingestLine(t, 1)),
		func() io.Reader { b, _ := encodeFrames(t, 10, 10); return bytes.NewReader(b) }(),
	} {
		resp, err := http.Post(srv.URL, "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
	}
}

// TestShipperBinaryWire ships batches as binary frames end to end through
// the real handler: one frame per flush, the frame content type on the
// request, order preserved.
func TestShipperBinaryWire(t *testing.T) {
	sink := &countingConsumer{}
	var mu sync.Mutex
	contentTypes := map[string]int{}
	handler := IngestHandlerStaged(sink, nil, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		contentTypes[r.Header.Get("Content-Type")]++
		mu.Unlock()
		handler(w, r)
	}))
	defer srv.Close()

	ship, err := NewShipper(ShipperConfig{URL: srv.URL, BatchSize: 100, Wire: WireBinary})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 250
	for i := 0; i < n; i++ {
		if err := ship.Add(ctx, wireReadingAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ship.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if ship.Shipped() != n {
		t.Fatalf("shipped %d, want %d", ship.Shipped(), n)
	}
	if sink.count() != n {
		t.Fatalf("consumer got %d readings, want %d", sink.count(), n)
	}
	for i, got := range sink.readings {
		want := wireReadingAt(i)
		got.Trace = want.Trace
		if !readingEqual(got, want) {
			t.Fatalf("reading %d: got %+v, want %+v", i, got, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if contentTypes[FrameContentType] != 3 || len(contentTypes) != 1 {
		t.Fatalf("content types %v, want 3 binary POSTs", contentTypes)
	}
}

func TestShipperRejectsUnknownWire(t *testing.T) {
	if _, err := NewShipper(ShipperConfig{URL: "http://example.invalid/ingest", Wire: "protobuf"}); err == nil {
		t.Fatal("unknown wire codec accepted")
	}
}

// TestOversizedLineResync is the regression test for the stream-killing bug:
// one line over the 1 MiB bound used to abort the whole stream, discarding
// every later reading in the batch. Now it is counted and skipped.
func TestOversizedLineResync(t *testing.T) {
	var stream bytes.Buffer
	stream.Write(ingestLine(t, 1))
	stream.WriteString(`{"deployment":"gdi","time_s":2,"values":[` + strings.Repeat("1,", maxLine/2) + `1]}` + "\n")
	stream.Write(ingestLine(t, 3))
	stream.Write(ingestLine(t, 4))

	sink := &collectConsumer{}
	st, err := ReadWireStream(&stream, sink, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 3 || st.Rejected != 1 || st.RejectedOversize != 1 || st.RejectedDecode != 0 {
		t.Fatalf("stats %+v, want 3 accepted and 1 oversize-rejected", st)
	}
	if sink.count() != 3 {
		t.Fatalf("consumer got %d readings, want the 3 valid ones", sink.count())
	}
}

// TestOversizedLineResyncHTTP drives the same fix through POST /ingest and
// checks the split rejection counters in the JSON response.
func TestOversizedLineResyncHTTP(t *testing.T) {
	sink := &collectConsumer{}
	srv := httptest.NewServer(IngestHandlerStaged(sink, nil, nil))
	defer srv.Close()
	var body bytes.Buffer
	body.Write(ingestLine(t, 1))
	body.WriteString(strings.Repeat("x", maxLine+100) + "\n") // oversized
	body.WriteString("not json\n")                            // undecodable
	body.Write(ingestLine(t, 2))
	resp, err := http.Post(srv.URL, "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d, want 200 (payload faults are counted, not fatal)", resp.StatusCode)
	}
	var st StreamStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	want := StreamStats{Accepted: 2, Rejected: 2, RejectedDecode: 1, RejectedOversize: 1}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestOversizedLineResyncTCP: the same bad producer line must not kill a TCP
// connection either.
func TestOversizedLineResyncTCP(t *testing.T) {
	sink := &collectConsumer{}
	srv := ServeTCP(listenTCP(t), sink, DefaultTCPIdleTimeout, StreamOptions{})
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(ingestLine(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(strings.Repeat("y", maxLine+50) + "\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(ingestLine(t, 2)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, 5*time.Second, func() bool { return sink.count() == 2 },
		"readings after the oversized line never arrived")
}

// TestFinalLineWithoutNewline: the last line of a stream may lack its
// delimiter (a producer killed mid-write); it still decodes.
func TestFinalLineWithoutNewline(t *testing.T) {
	line := bytes.TrimSuffix(ingestLine(t, 1), []byte("\n"))
	sink := &collectConsumer{}
	st, err := ReadWireStream(bytes.NewReader(line), sink, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 1 {
		t.Fatalf("stats %+v, want 1 accepted", st)
	}
}
