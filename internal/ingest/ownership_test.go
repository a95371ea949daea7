package ingest

import (
	"bytes"
	"cmp"
	"errors"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// keepingConsumer is a Consumer that keeps what the Consumer ownership
// rule lets it keep: a copy of every Reading struct, sharing the
// Values slices. Inside each call it also checks that rs does not change
// under it — a reader that recycled the batch's slab before SubmitBatch
// returned would show up here.
type keepingConsumer struct {
	mu      sync.Mutex
	kept    []Reading
	batches int
	sizes   []int
	changed int // readings of rs rewritten during their own SubmitBatch call
}

func (c *keepingConsumer) SubmitBatch(rs []Reading) (int, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := len(c.kept)
	c.kept = append(c.kept, rs...)
	runtime.Gosched() // let any goroutine that could still write rs run
	for i := range rs {
		if !readingEqual(rs[i], c.kept[start+i]) {
			c.changed++
		}
	}
	c.batches++
	c.sizes = append(c.sizes, len(rs))
	return len(rs), 0, nil
}

// ownedReadingAt is reading i of the ownership streams: distinct values per
// reading, ragged dims every few readings, three deployments.
func ownedReadingAt(i int) Reading {
	vals := vecmat.Vector{float64(i) + 0.25, -float64(i), float64(i * i)}
	if i%5 == 0 {
		vals = vals[:1+i%3]
	}
	return Reading{
		Deployment: "dep-" + string(rune('a'+i%3)),
		Seq:        uint64(i + 1),
		Reading: sensor.Reading{
			Sensor: i % 10,
			Time:   time.Duration(i) * time.Second,
			Values: vals,
		},
	}
}

// checkKept compares every kept reading with the encoded input, after the
// stream has ended and every slab has been reused many times over.
func checkKept(t *testing.T, c *keepingConsumer, want []Reading) {
	t.Helper()
	if c.changed != 0 {
		t.Fatalf("%d readings changed during their own SubmitBatch call", c.changed)
	}
	if len(c.kept) != len(want) {
		t.Fatalf("consumer kept %d readings, want %d", len(c.kept), len(want))
	}
	for i := range want {
		got := c.kept[i]
		got.Trace = want[i].Trace
		if !readingEqual(got, want[i]) {
			t.Fatalf("kept reading %d = %+v, want %+v: a reused slab aliases later data", i, got, want[i])
		}
	}
}

// TestBinaryStreamSlabOwnership streams many frames of varying size through
// ReadWireStream into a consumer that keeps its copies, then checks every
// copy against the encoded input: neither the pooled reading slabs nor the
// per-frame value slabs may alias data decoded later.
func TestBinaryStreamSlabOwnership(t *testing.T) {
	var stream bytes.Buffer
	var want []Reading
	var enc FrameEncoder
	frames := 0
	for i, size := 0, 1; i < 20000; size = size%300 + 37 {
		for j := 0; j < size; j++ {
			r := ownedReadingAt(i)
			want = append(want, r)
			enc.Add(r)
			i++
		}
		frame, err := enc.Frame()
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(frame)
		enc.Reset()
		frames++
	}
	sink := &keepingConsumer{}
	st, err := ReadWireStream(&stream, sink, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != len(want) || sink.batches != frames {
		t.Fatalf("accepted %d in %d batches, want %d in %d", st.Accepted, sink.batches, len(want), frames)
	}
	checkKept(t, sink, want)
}

// TestNDJSONStreamSlabOwnership is the NDJSON twin: the batched reader hands
// the consumer up to ndjsonBatch lines per call from one reused slab, and
// flushes the partial last batch before returning. Values are never slabbed:
// each reading owns an array of exactly its length.
func TestNDJSONStreamSlabOwnership(t *testing.T) {
	const n = 5*ndjsonBatch + 77
	var stream bytes.Buffer
	want := make([]Reading, n)
	for i := range want {
		want[i] = ownedReadingAt(i)
		line, err := EncodeLine(want[i])
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(line)
		stream.WriteByte('\n')
	}
	sink := &keepingConsumer{}
	st, err := ReadWireStream(&stream, sink, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != n {
		t.Fatalf("accepted %d, want %d", st.Accepted, n)
	}
	full := 0
	for _, size := range sink.sizes {
		if size > ndjsonBatch {
			t.Fatalf("batch sizes %v: one exceeds %d", sink.sizes, ndjsonBatch)
		}
		if size == ndjsonBatch {
			full++
		}
	}
	if full == 0 {
		t.Fatalf("batch sizes %v: none reaches %d", sink.sizes, ndjsonBatch)
	}
	checkKept(t, sink, want)
	checkOwnValues(t, sink.kept)
}

// checkOwnValues: every reading's Values is its own exact-size array — no
// spare capacity, and no two readings' arrays overlap — so a reading the
// windower holds pins its own values and nothing decoded beside it.
func checkOwnValues(t *testing.T, rs []Reading) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	spans := make([]span, len(rs))
	for i, r := range rs {
		if len(r.Values) != cap(r.Values) {
			t.Fatalf("reading %d: len(Values) %d, cap %d", i, len(r.Values), cap(r.Values))
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(r.Values)))
		spans[i] = span{lo, lo + uintptr(cap(r.Values))*unsafe.Sizeof(r.Values[0])}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("two readings share a values array at %#x", spans[i].lo)
		}
	}
}

// TestNDJSONBatchedTrickleNotHeld: a producer that sends a few lines and
// then waits (a TCP gateway between bursts) has them submitted before the
// reader blocks for more input, not held until a batch fills or the
// stream ends.
func TestNDJSONBatchedTrickleNotHeld(t *testing.T) {
	pr, pw := io.Pipe()
	sink := &keepingConsumer{}
	done := make(chan error, 1)
	go func() {
		_, err := ReadWireStream(pr, sink, StreamOptions{})
		done <- err
	}()
	held := func() int {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		return len(sink.kept)
	}
	for burst := 1; burst <= 3; burst++ {
		var lines bytes.Buffer
		for i := 0; i < 3; i++ {
			line, err := EncodeLine(ownedReadingAt(3*(burst-1) + i))
			if err != nil {
				t.Fatal(err)
			}
			lines.Write(line)
			lines.WriteByte('\n')
		}
		if _, err := pw.Write(lines.Bytes()); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for held() < 3*burst {
			if time.Now().After(deadline) {
				t.Fatalf("burst %d: consumer holds %d readings while the stream waits, want %d", burst, held(), 3*burst)
			}
			time.Sleep(time.Millisecond)
		}
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// failingReader yields data, then fails with err.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestNDJSONBatchedReadErrorFlushesPrefix: a body read error mid-stream
// still names the failing line, and every line before it reaches the
// consumer and is counted.
func TestNDJSONBatchedReadErrorFlushesPrefix(t *testing.T) {
	const n = ndjsonBatch + 10
	var body bytes.Buffer
	for i := 0; i < n; i++ {
		line, err := EncodeLine(ownedReadingAt(i))
		if err != nil {
			t.Fatal(err)
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	boom := errors.New("connection reset")
	for _, c := range []Consumer{&keepingConsumer{}, &collectConsumer{}} {
		st, err := ReadWireStream(&failingReader{data: body.Bytes(), err: boom}, c, StreamOptions{})
		var pe *PayloadError
		if !errors.As(err, &pe) || !errors.Is(err, boom) || pe.Line != n+1 {
			t.Fatalf("%T: err %v, want a PayloadError at line %d", c, err, n+1)
		}
		got := 0
		switch c := c.(type) {
		case *keepingConsumer:
			got = len(c.kept)
		case *collectConsumer:
			got = c.count()
		}
		if st.Accepted != n || got != n {
			t.Fatalf("%T: accepted %d, consumer holds %d, want the %d lines before the failure", c, st.Accepted, got, n)
		}
	}
}
