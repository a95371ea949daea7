// Package profiles is the continuous-profiling tier: it captures CPU, heap,
// and goroutine profiles into a bounded on-disk ring, either on a periodic
// ticker or on demand (the fleet triggers a capture when a burn-rate SLO
// fires, so a paged alert always ships with the profile of the incident).
// The ring is self-pruning by file count and total bytes; an HTTP index at
// /debug/profiles lists and serves the captured files for `go tool pprof`.
package profiles

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config sizes the capturer. Zero-valued optional fields take the defaults
// noted per field.
type Config struct {
	// Dir is the on-disk ring directory. Required.
	Dir string
	// Interval spaces periodic captures; 0 disables them (captures then only
	// happen via TriggerCapture / CaptureNow).
	Interval time.Duration
	// Logger receives capture/prune events; nil discards them.
	Logger *slog.Logger

	// cpuDuration and maxFiles, when set, replace the constants of the
	// same names — the hooks the tests capture quickly and prune early
	// with.
	cpuDuration time.Duration
	maxFiles    int
}

const (
	// cpuDuration is how long each CPU profile records.
	cpuDuration = 2 * time.Second
	// maxFiles and maxBytes bound the ring by file count and total size.
	maxFiles = 64
	maxBytes = 256 << 20
)

// Entry describes one captured profile file in the ring.
type Entry struct {
	File   string `json:"file"`
	Kind   string `json:"kind"` // cpu | heap | goroutine
	Reason string `json:"reason"`
	UnixMs int64  `json:"unix_ms"`
	Bytes  int64  `json:"bytes"`
}

// Capturer owns the profile ring. Safe for concurrent use.
type Capturer struct {
	cfg Config
	log *slog.Logger

	mu        sync.Mutex // serializes capture passes and pruning
	capturing atomic.Bool

	stop chan struct{}
	done chan struct{}
	once sync.Once

	started bool
}

// New builds a capturer and creates the ring directory.
func New(cfg Config) (*Capturer, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("profiles: Dir required")
	}
	if cfg.cpuDuration <= 0 {
		cfg.cpuDuration = cpuDuration
	}
	if cfg.maxFiles <= 0 {
		cfg.maxFiles = maxFiles
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("profiles: %w", err)
	}
	return &Capturer{
		cfg:  cfg,
		log:  cfg.Logger,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Dir returns the ring directory.
func (c *Capturer) Dir() string { return c.cfg.Dir }

// Start launches periodic capture when Interval > 0; otherwise it is a no-op
// and the capturer only responds to triggers.
func (c *Capturer) Start() {
	if c.cfg.Interval <= 0 {
		return
	}
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(c.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.CaptureNow("periodic")
			}
		}
	}()
}

// Close stops the periodic loop. In-flight triggered captures finish on their
// own goroutines.
func (c *Capturer) Close() {
	c.once.Do(func() { close(c.stop) })
	c.mu.Lock()
	started := c.started
	c.mu.Unlock()
	if started {
		<-c.done
	}
}

// TriggerCapture starts an asynchronous capture labeled with reason (e.g. the
// firing alert's name). Non-blocking and coalescing: while one triggered
// capture runs, further triggers are dropped — an alert storm produces one
// incident profile, not a pile.
func (c *Capturer) TriggerCapture(reason string) {
	if c == nil {
		return
	}
	if !c.capturing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer c.capturing.Store(false)
		c.CaptureNow(reason)
	}()
}

// CaptureNow synchronously captures heap + goroutine profiles and, when no
// other CPU profile is running process-wide, a CPU profile of cpuDuration.
// Returns the entries written.
func (c *Capturer) CaptureNow(reason string) []Entry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	nowMs := time.Now().UnixMilli()
	slug := reasonSlug(reason)
	var out []Entry

	// CPU first: StartCPUProfile is process-global, so a bench or an explicit
	// /debug/pprof/profile request may already hold it — skip CPU then, the
	// heap and goroutine captures still land.
	if e, ok := c.captureCPU(nowMs, slug, reason); ok {
		out = append(out, e)
	}
	for _, kind := range []string{"heap", "goroutine"} {
		if e, ok := c.captureLookup(kind, nowMs, slug, reason); ok {
			out = append(out, e)
		}
	}
	c.prune()
	return out
}

func (c *Capturer) captureCPU(nowMs int64, slug, reason string) (Entry, bool) {
	name := fmt.Sprintf("%d-%s.cpu.pprof", nowMs, slug)
	path := filepath.Join(c.cfg.Dir, name)
	f, err := os.Create(path)
	if err != nil {
		c.log.Warn("profile capture failed", "kind", "cpu", "err", err)
		return Entry{}, false
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		// Another CPU profile is active; don't leave an empty file behind.
		f.Close()
		os.Remove(path)
		c.log.Info("cpu profile skipped", "reason", reason, "err", err)
		return Entry{}, false
	}
	time.Sleep(c.cfg.cpuDuration)
	pprof.StopCPUProfile()
	info, _ := f.Stat()
	f.Close()
	e := Entry{File: name, Kind: "cpu", Reason: reason, UnixMs: nowMs}
	if info != nil {
		e.Bytes = info.Size()
	}
	c.log.Info("profile captured", "kind", "cpu", "file", name, "reason", reason)
	return e, true
}

func (c *Capturer) captureLookup(kind string, nowMs int64, slug, reason string) (Entry, bool) {
	p := pprof.Lookup(kind)
	if p == nil {
		return Entry{}, false
	}
	name := fmt.Sprintf("%d-%s.%s.pprof", nowMs, slug, kind)
	path := filepath.Join(c.cfg.Dir, name)
	f, err := os.Create(path)
	if err != nil {
		c.log.Warn("profile capture failed", "kind", kind, "err", err)
		return Entry{}, false
	}
	err = p.WriteTo(f, 0)
	info, _ := f.Stat()
	f.Close()
	if err != nil {
		os.Remove(path)
		c.log.Warn("profile capture failed", "kind", kind, "err", err)
		return Entry{}, false
	}
	e := Entry{File: name, Kind: kind, Reason: reason, UnixMs: nowMs}
	if info != nil {
		e.Bytes = info.Size()
	}
	c.log.Info("profile captured", "kind", kind, "file", name, "reason", reason)
	return e, true
}

// Index lists the ring's entries, newest first, by scanning the directory —
// the filenames are the metadata, so the index survives process restarts.
func (c *Capturer) Index() []Entry {
	ents, err := os.ReadDir(c.cfg.Dir)
	if err != nil {
		return nil
	}
	var out []Entry
	for _, de := range ents {
		e, ok := parseEntryName(de.Name())
		if !ok {
			continue
		}
		if info, err := de.Info(); err == nil {
			e.Bytes = info.Size()
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].UnixMs != out[j].UnixMs {
			return out[i].UnixMs > out[j].UnixMs
		}
		return out[i].File < out[j].File
	})
	return out
}

// prune drops the oldest entries until the ring fits maxFiles and maxBytes.
// Callers hold c.mu.
func (c *Capturer) prune() {
	idx := c.Index() // newest first
	var total int64
	for _, e := range idx {
		total += e.Bytes
	}
	for i := len(idx) - 1; i >= 0 && (len(idx[:i+1]) > c.cfg.maxFiles || total > maxBytes); i-- {
		if err := os.Remove(filepath.Join(c.cfg.Dir, idx[i].File)); err == nil {
			c.log.Info("profile pruned", "file", idx[i].File)
		}
		total -= idx[i].Bytes
	}
}

// reasonSlug sanitizes a reason into a filename-safe slug.
func reasonSlug(reason string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(reason) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	s := strings.Trim(b.String(), "-")
	if s == "" {
		s = "manual"
	}
	if len(s) > 48 {
		s = s[:48]
	}
	return s
}

// parseEntryName decodes "<unixms>-<reason>.<kind>.pprof".
func parseEntryName(name string) (Entry, bool) {
	if !strings.HasSuffix(name, ".pprof") {
		return Entry{}, false
	}
	stem := strings.TrimSuffix(name, ".pprof")
	dot := strings.LastIndexByte(stem, '.')
	if dot < 0 {
		return Entry{}, false
	}
	kind := stem[dot+1:]
	switch kind {
	case "cpu", "heap", "goroutine":
	default:
		return Entry{}, false
	}
	rest := stem[:dot]
	dash := strings.IndexByte(rest, '-')
	if dash < 0 {
		return Entry{}, false
	}
	ms, err := strconv.ParseInt(rest[:dash], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	return Entry{File: name, Kind: kind, Reason: rest[dash+1:], UnixMs: ms}, true
}
