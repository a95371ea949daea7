package tsdb

import (
	"sync"
	"time"

	"sensorguard/internal/obs"
)

// Config sizes the store. The zero value of optional fields picks the
// defaults noted per field.
type Config struct {
	// Registry is the metrics registry to sample.
	Registry *obs.Registry
	// Resolution is the sampling interval. Default 1s.
	Resolution time.Duration
	// Retention is how far back queries can reach. Default 15m. Eviction is
	// chunk-granular, so up to one chunk (~Resolution×240) beyond Retention
	// may linger per series.
	Retention time.Duration

	// source and maxSeries, when set, replace Registry.Samples and the
	// constant of the same name — the hooks the tests feed the store
	// without a registry and shrink its cap with.
	source    func() []obs.Sample
	maxSeries int
}

// maxSeries bounds the number of tracked series; new series beyond the cap
// are dropped (existing ones keep sampling).
const maxSeries = 4096

// series is the retained history of one metric name.
type series struct {
	kind   obs.SampleKind
	chunks []*chunk
}

// DB is the embedded time-series store. One goroutine (Start) samples the
// registry on a ticker; queries share the store under a mutex.
type DB struct {
	cfg    Config
	mu     sync.Mutex
	series map[string]*series

	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	started bool

	dropped int // series beyond maxSeries, for Stats
}

// New builds a store. Start must be called to begin sampling; tests can call
// Sample directly for deterministic clocks.
func New(cfg Config) *DB {
	if cfg.Resolution <= 0 {
		cfg.Resolution = time.Second
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 15 * time.Minute
	}
	if cfg.maxSeries <= 0 {
		cfg.maxSeries = maxSeries
	}
	if cfg.source == nil && cfg.Registry != nil {
		cfg.source = cfg.Registry.Samples
	}
	return &DB{
		cfg:    cfg,
		series: make(map[string]*series),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Resolution returns the configured sampling interval.
func (db *DB) Resolution() time.Duration { return db.cfg.Resolution }

// Retention returns the configured retention horizon.
func (db *DB) Retention() time.Duration { return db.cfg.Retention }

// Start launches the sampling loop. Close stops it.
func (db *DB) Start() {
	db.mu.Lock()
	if db.started {
		db.mu.Unlock()
		return
	}
	db.started = true
	db.mu.Unlock()
	go func() {
		defer close(db.done)
		tick := time.NewTicker(db.cfg.Resolution)
		defer tick.Stop()
		for {
			select {
			case <-db.stop:
				return
			case now := <-tick.C:
				db.Sample(now)
			}
		}
	}()
}

// Close stops the sampling loop and waits for it to exit. Safe to call when
// Start was never called, and safe to call twice.
func (db *DB) Close() {
	db.once.Do(func() { close(db.stop) })
	db.mu.Lock()
	started := db.started
	db.mu.Unlock()
	if started {
		<-db.done
	}
}

// Sample takes one pass over the source, appending every sample at now and
// evicting chunks older than the retention horizon. Exported so tests (and
// deterministic harnesses) can drive the clock themselves.
func (db *DB) Sample(now time.Time) {
	if db.cfg.source == nil {
		return
	}
	samples := db.cfg.source()
	nowMs := now.UnixMilli()
	cutMs := now.Add(-db.cfg.Retention).UnixMilli()

	db.mu.Lock()
	defer db.mu.Unlock()
	seen := make(map[string]struct{}, len(samples))
	for _, s := range samples {
		seen[s.Name] = struct{}{}
		sr := db.series[s.Name]
		if sr == nil {
			if len(db.series) >= db.cfg.maxSeries {
				db.dropped++
				continue
			}
			sr = &series{kind: s.Kind}
			db.series[s.Name] = sr
		}
		counter := sr.kind == obs.KindCounter
		if n := len(sr.chunks); n == 0 || !sr.chunks[n-1].append(nowMs, s.Value, counter) {
			c := &chunk{}
			c.append(nowMs, s.Value, counter)
			sr.chunks = append(sr.chunks, c)
		}
	}
	// Evict whole chunks past the horizon; a series whose source vanished
	// (e.g. a deployment-labeled gauge after the deployment ages out) decays
	// chunk by chunk and is deleted once empty.
	for name, sr := range db.series {
		for len(sr.chunks) > 0 && sr.chunks[0].lastT < cutMs {
			if _, live := seen[name]; live && len(sr.chunks) == 1 {
				break // keep the newest chunk of a live series
			}
			sr.chunks = sr.chunks[1:]
		}
		if len(sr.chunks) == 0 {
			delete(db.series, name)
		}
	}
}

// Stats summarizes the store for /metrics/range?list=1 and logs.
type Stats struct {
	Series       int   `json:"series"`
	Chunks       int   `json:"chunks"`
	Bytes        int   `json:"bytes"`
	DroppedNames int   `json:"dropped_names"`
	OldestMs     int64 `json:"oldest_ms"`
	NewestMs     int64 `json:"newest_ms"`
}

// Stats reports current store occupancy.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	var st Stats
	st.Series = len(db.series)
	st.DroppedNames = db.dropped
	for _, sr := range db.series {
		st.Chunks += len(sr.chunks)
		for _, c := range sr.chunks {
			st.Bytes += c.bytes()
		}
		if len(sr.chunks) > 0 {
			if first := sr.chunks[0].startT; st.OldestMs == 0 || first < st.OldestMs {
				st.OldestMs = first
			}
			if last := sr.chunks[len(sr.chunks)-1].lastT; last > st.NewestMs {
				st.NewestMs = last
			}
		}
	}
	return st
}

// SeriesNames returns every tracked series name, unsorted.
func (db *DB) SeriesNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.series))
	for name := range db.series {
		out = append(out, name)
	}
	return out
}

// read decodes the full retained history of one series. Returns nil when the
// series is unknown.
func (db *DB) read(name string) ([]point, obs.SampleKind, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	sr := db.series[name]
	if sr == nil {
		return nil, 0, false
	}
	var pts []point
	for _, c := range sr.chunks {
		pts = c.decode(pts, sr.kind == obs.KindCounter)
	}
	return pts, sr.kind, true
}
