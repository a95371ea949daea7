package ingest

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
)

// Windower assembles the observation windows of Eq. (1) from a stream whose
// arrival order need not match event time. It is the one windowing state
// machine: the offline path, network.WindowAll, is a stateless sort and
// cut of a complete trace.
//
// Event-time progress is tracked by a watermark: the maximum event time seen
// so far minus the configured lateness bound. A window [start, end) stays
// open — buffering readings in arrival order — until the watermark passes
// its end, at which point it is emitted; gaps are emitted as empty windows
// (nil Readings) so window indices stay contiguous. Readings for windows
// already emitted are dropped and counted as late.
//
// With in-order input and any lateness ≥ 0, the emitted window sequence is
// identical to network.WindowAll over the complete trace (the equivalence
// the serving e2e test pins down). With lateness 0 a window closes as soon
// as a reading of a later window arrives.
//
// A Windower is not safe for concurrent use; in the fleet each shard worker
// owns its windowers.
//
// Ownership of an emitted window's Readings array: it belongs to the caller
// until the caller hands it back with Release, and forever if it never
// does. Release returns the array to a process-wide pool the next windows
// are buffered in (of any Windower), so a released array must no longer be
// read — by the caller or by anything it lent the window to. Nothing the
// fleet hands a window to keeps the array past Step: the detector copies
// what it keeps (per-sensor means and sums) and keeps at most the readings'
// Values slices, which belong to the consumer, not to the array.
type Windower struct {
	width    time.Duration
	lateness time.Duration

	// open buffers readings per not-yet-emitted window. Buckets are boxed
	// so the per-reading append updates the slice through the pointer
	// instead of re-storing a map value, and curIdx/cur cache the bucket
	// of the most recent append — with in-order input the map is touched
	// once per window, not once per reading.
	open     map[int]*[]sensor.Reading
	curIdx   int
	cur      *[]sensor.Reading
	free     []*[]sensor.Reading     // bucket boxes whose array shipped out with its window
	emitted  []network.Window        // AddTraced's result, reused across calls
	sizeHint int                     // last non-empty emitted window's reading count
	traces   map[int]obs.SpanContext // first sampled context per open window
	started  bool
	nextEmit int           // lowest window index not yet emitted
	maxIndex int           // highest window index holding a reading
	maxTime  time.Duration // watermark anchor: max event time seen
	late     int
}

// NewWindower builds a streaming windower with window duration width and a
// lateness bound: a reading may arrive up to lateness after the newest event
// time seen and still land in its window.
func NewWindower(width, lateness time.Duration) (*Windower, error) {
	if width <= 0 {
		return nil, errors.New("ingest: window width must be positive")
	}
	if lateness < 0 {
		return nil, errors.New("ingest: lateness must be non-negative")
	}
	return &Windower{
		width:    width,
		lateness: lateness,
		open:     make(map[int]*[]sensor.Reading),
		traces:   make(map[int]obs.SpanContext),
	}, nil
}

// Add folds one reading in and returns the windows (possibly empty gap
// windows, in index order) that the advancing watermark has closed, or nil.
// The returned slice is reused by the next Add or AddTraced: copy the
// windows out (they are values) to keep them longer.
func (w *Windower) Add(r sensor.Reading) []network.Window {
	return w.AddTraced(r, obs.SpanContext{})
}

// AddTraced is Add carrying the reading's span context: the first recording
// context admitted to a window is stamped on that window when it is emitted,
// so the detector's stage spans join the trace of the batch that fed the
// window. Trace annotations are in-memory only — they do not survive a
// checkpoint/restore cycle (a trace that spans a crash is two traces).
func (w *Windower) AddTraced(r sensor.Reading, tc obs.SpanContext) []network.Window {
	idx := network.WindowIndex(r.Time, w.width)
	if !w.started {
		w.started = true
		w.nextEmit = idx
		w.maxIndex = idx
		w.maxTime = r.Time
	}
	if idx < w.nextEmit {
		w.late++
		return nil
	}
	if w.cur != nil && idx == w.curIdx {
		*w.cur = append(*w.cur, r)
	} else {
		b := w.open[idx]
		if b == nil {
			b = w.newBucket()
			w.open[idx] = b
		}
		*b = append(*b, r)
		w.curIdx, w.cur = idx, b
	}
	if tc.Recording() {
		if _, ok := w.traces[idx]; !ok {
			w.traces[idx] = tc
		}
	}
	if idx > w.maxIndex {
		w.maxIndex = idx
	}
	if r.Time > w.maxTime {
		w.maxTime = r.Time
	}
	return w.advance()
}

// advance emits every window whose end the watermark has passed. The window
// containing maxTime always ends after the watermark, so the loop cannot run
// past the data.
func (w *Windower) advance() []network.Window {
	watermark := w.maxTime - w.lateness
	if time.Duration(w.nextEmit+1)*w.width > watermark {
		return nil
	}
	w.emitted = w.emitted[:0]
	for time.Duration(w.nextEmit+1)*w.width <= watermark {
		w.emitted = append(w.emitted, w.emit(w.nextEmit))
		w.nextEmit++
	}
	return w.emitted
}

// maxFreeBoxes bounds a windower's spare bucket boxes. In-order input keeps
// one or two windows open, so a handful covers every Release.
const maxFreeBoxes = 8

// bucketPool holds released readings arrays, boxed and emptied, for every
// Windower in the process: one pool rather than a spare list per
// deployment, so idle deployments pin no arrays.
var bucketPool sync.Pool

// newBucket returns an empty bucket box: a released array from the pool
// when there is one, else a fresh array in a box a previous emit freed.
// The size hint pre-sizes a fresh array to the last emitted window's
// count, turning the per-window append-growth chain into one allocation.
func (w *Windower) newBucket() *[]sensor.Reading {
	if b, ok := bucketPool.Get().(*[]sensor.Reading); ok {
		return b
	}
	arr := make([]sensor.Reading, 0, w.sizeHint)
	if n := len(w.free); n > 0 {
		b := w.free[n-1]
		w.free = w.free[:n-1]
		*b = arr
		return b
	}
	return &arr
}

// Release hands an emitted window's Readings array back once the caller
// has finished with the window (see Windower for the ownership rule). It
// clears the array, so the pool pins no reading's Values, and pools it for
// the next window's bucket. Call it at most once per window, with the
// Readings exactly as emitted; an empty gap window's nil Readings is a
// no-op. Readings never released stay the caller's, as Flush's do at drain.
func (w *Windower) Release(readings []sensor.Reading) {
	if cap(readings) == 0 {
		return
	}
	clear(readings)
	var b *[]sensor.Reading
	if n := len(w.free); n > 0 {
		b = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		b = new([]sensor.Reading)
	}
	*b = readings[:0]
	bucketPool.Put(b)
}

// emit builds one window, consuming its buffered readings and trace context.
// The readings' backing array transfers to the window until the caller
// releases it; the empty bucket box stays here for Release to pool it in.
func (w *Windower) emit(idx int) network.Window {
	var rs []sensor.Reading
	if b := w.open[idx]; b != nil {
		rs = *b
		*b = nil
		// Keep the box for Release, up to a few: buckets drawn from the
		// pool bring their own box, so a windower whose windows go
		// unreleased would otherwise pile boxes up here.
		if len(w.free) < maxFreeBoxes {
			w.free = append(w.free, b)
		}
		delete(w.open, idx)
	}
	if w.cur != nil && w.curIdx == idx {
		w.cur = nil
	}
	if len(rs) > 0 {
		w.sizeHint = len(rs)
	}
	win := network.BuildWindow(idx, w.width, rs)
	win.Trace = w.traces[idx]
	delete(w.traces, idx)
	return win
}

// Flush emits every remaining window — open or gap — up to the highest index
// holding a reading, and resets the windower. Called on drain/shutdown.
func (w *Windower) Flush() []network.Window {
	if !w.started {
		return nil
	}
	var out []network.Window
	for i := w.nextEmit; i <= w.maxIndex; i++ {
		out = append(out, w.emit(i))
	}
	w.open = make(map[int]*[]sensor.Reading)
	w.traces = make(map[int]obs.SpanContext)
	w.cur = nil
	w.started = false
	return out
}

// Pending returns the number of windows buffered but not yet emitted — the
// event-time lag between the newest reading and the emission frontier.
func (w *Windower) Pending() int {
	if !w.started {
		return 0
	}
	return w.maxIndex - w.nextEmit + 1
}

// Late returns the number of readings dropped for arriving after their
// window was emitted.
func (w *Windower) Late() int { return w.late }

// WindowerState is a Windower's checkpointed cursor: configuration,
// watermark, and the reading count of each open (not yet emitted) window,
// keyed by window index. The buffered readings themselves travel beside it:
// Export hands them out and RestoreWindower takes them back, windows in
// ascending index order and readings in arrival order within a window.
type WindowerState struct {
	Width    time.Duration `json:"width"`
	Lateness time.Duration `json:"lateness"`
	Open     map[int]int   `json:"open_readings,omitempty"`
	Started  bool          `json:"started"`
	NextEmit int           `json:"next_emit"`
	MaxIndex int           `json:"max_index"`
	MaxTime  time.Duration `json:"max_time"`
	Late     int           `json:"late"`
}

// Export returns the windower's cursor and its buffered readings, each open
// window's in arrival order, windows in ascending index order. The readings
// are not copied: their Values alias the windower's buffers, so use them
// before the next Add, AddTraced, Flush or Release.
func (w *Windower) Export() (WindowerState, []sensor.Reading) {
	st := WindowerState{
		Width:    w.width,
		Lateness: w.lateness,
		Started:  w.started,
		NextEmit: w.nextEmit,
		MaxIndex: w.maxIndex,
		MaxTime:  w.maxTime,
		Late:     w.late,
	}
	if len(w.open) == 0 {
		return st, nil
	}
	idxs := make([]int, 0, len(w.open))
	n := 0
	for idx, b := range w.open {
		idxs = append(idxs, idx)
		n += len(*b)
	}
	sort.Ints(idxs)
	st.Open = make(map[int]int, len(idxs))
	buffered := make([]sensor.Reading, 0, n)
	for _, idx := range idxs {
		rs := *w.open[idx]
		st.Open[idx] = len(rs)
		buffered = append(buffered, rs...)
	}
	return st, buffered
}

// RestoreWindower rebuilds a Windower from an exported cursor and the
// buffered readings Export returned with it, validating the configuration
// and cursor invariants defensively. Each restored reading gets its own
// copy of its Values, so the windower holds nothing of the caller's arrays.
func RestoreWindower(st WindowerState, buffered []sensor.Reading) (*Windower, error) {
	w, err := NewWindower(st.Width, st.Lateness)
	if err != nil {
		return nil, err
	}
	if !st.Started {
		if len(st.Open) > 0 || len(buffered) > 0 {
			return nil, errors.New("ingest: windower state buffers readings before starting")
		}
		w.late = st.Late
		return w, nil
	}
	if st.MaxIndex < st.NextEmit {
		return nil, fmt.Errorf("ingest: windower state max index %d below emission frontier %d", st.MaxIndex, st.NextEmit)
	}
	idxs := make([]int, 0, len(st.Open))
	total := 0
	for idx, n := range st.Open {
		if idx < st.NextEmit || idx > st.MaxIndex {
			return nil, fmt.Errorf("ingest: windower state buffers window %d outside [%d,%d]", idx, st.NextEmit, st.MaxIndex)
		}
		if n < 0 || n > len(buffered) {
			return nil, fmt.Errorf("ingest: windower state lists %d readings in window %d", n, idx)
		}
		idxs = append(idxs, idx)
		total += n
	}
	if total != len(buffered) {
		return nil, fmt.Errorf("ingest: windower state lists %d buffered readings, got %d", total, len(buffered))
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		n := st.Open[idx]
		cp := make([]sensor.Reading, n)
		for i, r := range buffered[:n] {
			cp[i] = r
			cp[i].Values = r.Values.Clone()
		}
		w.open[idx] = &cp
		buffered = buffered[n:]
	}
	w.started = true
	w.nextEmit = st.NextEmit
	w.maxIndex = st.MaxIndex
	w.maxTime = st.MaxTime
	w.late = st.Late
	return w, nil
}
