// Package fleet shards live sensor streams across a pool of detector
// workers: readings are routed by deployment key to one of N shards, each a
// single goroutine owning the streaming windowers and detectors of its
// deployments. Queues are bounded with an explicit overflow policy
// (backpressure or load shedding), shutdown drains every queue and flushes
// every open window, and per-shard gauges/counters surface queue depth,
// watermark lag, drops, and windows emitted through internal/obs.
//
// One goroutine per shard keeps every detector single-writer — the paper's
// collector-side pipeline is inherently sequential per deployment — while
// deployments spread across shards for parallelism. Live diagnosis snapshots
// (Report, Status) cross into a shard through core.Shared, which serialises
// them against the worker between windows.
package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/cluster"
	"sensorguard/internal/core"
	"sensorguard/internal/ingest"
	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/obs/profiles"
	"sensorguard/internal/obs/tsdb"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// Policy says what Submit does when a shard queue is full.
type Policy int

const (
	// Block applies backpressure: Submit waits for queue space, slowing
	// the producer to the detector's pace.
	Block Policy = iota
	// DropNewest sheds load: Submit drops the incoming reading, counts it,
	// and returns ingest.ErrDropped.
	DropNewest
)

// ParsePolicy maps the CLI spelling ("block" | "drop") to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop":
		return DropNewest, nil
	}
	return 0, fmt.Errorf("fleet: unknown overflow policy %q (want block or drop)", s)
}

// Config parameterises the pool.
type Config struct {
	// Shards is the worker count (default 4). Deployment keys hash onto
	// shards, so more shards than active deployments buys nothing.
	Shards int
	// QueueLen bounds each shard's queue (default 1024 readings).
	QueueLen int
	// Policy is the overflow behaviour (default Block).
	Policy Policy
	// Window is the observation window duration w (default 1h).
	Window time.Duration
	// Lateness bounds how far behind the newest event time a reading may
	// arrive and still join its window (default Window).
	Lateness time.Duration
	// Bootstrap is how much leading event time per deployment is buffered
	// to seed the model states by k-means — the paper's offline
	// clustering pass over the first day (default 24h).
	Bootstrap time.Duration
	// States is the k of the bootstrap k-means (default 6, the paper's M).
	States int
	// Seed freezes the bootstrap clustering.
	Seed int64
	// Metrics, when non-nil, receives the pool and per-shard metrics.
	Metrics *obs.Registry
	// Tracer, when non-nil, records spans for sampled readings end to end:
	// journal append, queue wait, window admission, detector stages, and
	// checkpoint append all join the trace the ingest listener started (or
	// the producer stamped via a Traceparent batch header).
	Tracer *obs.Tracer
	// DecisionBuffer retains the last N decision records per deployment,
	// served on /debug/decisions/{deployment}. Zero disables the rings.
	DecisionBuffer int
	// AuditLog, when non-nil, receives every deployment's decision records
	// as NDJSON — the durable audit trail of every verdict.
	AuditLog io.Writer
	// Durability enables the write-ahead journal and periodic checkpoints
	// when Durability.Dir is set.
	Durability Durability

	// TSDB, when non-nil, is the embedded time-series store whose query API
	// the pool serves on /metrics/range. The pool does not start or stop it;
	// the caller owns its lifecycle (so one store can outlive pool restarts).
	TSDB *tsdb.DB
	// Profiles, when non-nil, is the profile-capture ring: the pool triggers
	// a capture whenever a burn-rate SLO alert fires and serves the ring's
	// index on /debug/profiles. Lifecycle is the caller's, like TSDB.
	Profiles *profiles.Capturer

	// Logger, when non-nil, receives structured operational logs: alert
	// transitions, recovered panics, drift verdicts.
	Logger *slog.Logger

	// newDetector, when set, replaces newDeploymentDetector — the hook the
	// saturation tests wedge a shard worker inside a bootstrap with.
	newDetector func(seeds []vecmat.Vector) (*core.Detector, error)
	// sloTick and slos, when set, replace the constant sloTick and
	// defaultSLOs — the hooks the alert tests run the burn-rate lifecycle
	// in milliseconds with. An unknown SLO name fails New.
	sloTick time.Duration
	slos    []obs.SLOSpec
	// panicOn, when set, makes the shard worker panic while handling a
	// matching reading — the hook the supervision tests inject faults with.
	panicOn func(ingest.Reading) bool
	// stallOn, when set, can return a channel for a matching reading; the
	// shard worker blocks on it before handling — the hook the saturation
	// tests back a queue up with.
	stallOn func(ingest.Reading) <-chan struct{}
}

// validate rejects the negative sizes and durations that withDefaults would
// otherwise turn into defaults: zero means "default", a negative value is a
// mistake the caller should hear about.
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		neg  bool
		v    any
	}{
		{"Shards", c.Shards < 0, c.Shards},
		{"QueueLen", c.QueueLen < 0, c.QueueLen},
		{"Window", c.Window < 0, c.Window},
		{"Lateness", c.Lateness < 0, c.Lateness},
		{"Bootstrap", c.Bootstrap < 0, c.Bootstrap},
		{"States", c.States < 0, c.States},
		{"DecisionBuffer", c.DecisionBuffer < 0, c.DecisionBuffer},
		{"Durability.Interval", c.Durability.Interval < 0, c.Durability.Interval},
		{"Durability.EveryN", c.Durability.EveryN < 0, c.Durability.EveryN},
	} {
		if f.neg {
			return fmt.Errorf("fleet: %s must not be negative, got %v", f.name, f.v)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.Window <= 0 {
		c.Window = time.Hour
	}
	if c.Lateness <= 0 {
		c.Lateness = c.Window
	}
	if c.Bootstrap <= 0 {
		c.Bootstrap = 24 * time.Hour
	}
	if c.States <= 0 {
		c.States = 6
	}
	if c.sloTick <= 0 {
		c.sloTick = sloTick
	}
	if c.slos == nil {
		c.slos = defaultSLOs()
	}
	if c.Durability.Dir != "" {
		if c.Durability.Interval <= 0 && c.Durability.EveryN <= 0 {
			c.Durability.Interval = time.Minute
		}
		if c.Durability.FS == nil {
			c.Durability.FS = chaos.OS
		}
		if c.Durability.breakerBase <= 0 {
			c.Durability.breakerBase = breakerBase
		}
		if c.Durability.breakerMax <= 0 {
			c.Durability.breakerMax = breakerMax
		}
		if c.Durability.checkpointCooldown <= 0 {
			c.Durability.checkpointCooldown = checkpointCooldown
		}
	}
	return c
}

// newDeploymentDetector builds a deployment's detector from its bootstrap
// seeds: the paper's parameters (core.DefaultConfig) with Window installed.
func (c Config) newDeploymentDetector(seeds []vecmat.Vector) (*core.Detector, error) {
	if c.newDetector != nil {
		return c.newDetector(seeds)
	}
	cfg := core.DefaultConfig(seeds)
	cfg.Window = c.Window
	return core.NewDetector(cfg)
}

// restoreDeploymentDetector rebuilds a deployment's detector from its
// checkpointed snapshot under the same parameters newDeploymentDetector
// uses. Shards recover in parallel; it shares nothing.
func (c Config) restoreDeploymentDetector(snap *core.Snapshot) (*core.Detector, error) {
	cfg := core.DefaultConfig(nil)
	cfg.Window = c.Window
	return core.RestoreDetector(cfg, snap)
}

// Errors a Report caller distinguishes.
var (
	// ErrClosed reports a Submit after Drain began.
	ErrClosed = errors.New("fleet: pool draining")
	// ErrUnknownDeployment reports a query for a deployment that never
	// delivered a reading.
	ErrUnknownDeployment = errors.New("fleet: unknown deployment")
	// ErrBootstrapping reports a query for a deployment still buffering
	// its bootstrap horizon (no detector yet).
	ErrBootstrapping = errors.New("fleet: deployment still bootstrapping")
)

// Pool is the sharded collector fleet.
type Pool struct {
	cfg    Config
	shards []*shard
	wg     sync.WaitGroup

	mu      sync.RWMutex // serialises Submit against Drain
	closed  bool
	aborted atomic.Bool
	drained chan struct{}

	readings  *obs.Counter
	panics    *obs.Counter
	restarts  *obs.Counter
	queueWait *obs.Histogram
	// journalAppend times the durable admission path's commit; it feeds
	// the journal-append-latency SLO.
	journalAppend *obs.Histogram
	// degradeEdges counts healthy→degraded breaker transitions across shards.
	degradeEdges *obs.Counter
	alertEdges   *obs.Counter

	// stages and its cached per-stage clocks feed bottleneck attribution;
	// stageSnap/stageSnapOK are the previous sweep's cumulative counters,
	// owned by the runSLO goroutine. All nil/zero with metrics off.
	stages       *obs.StageSet
	clkDecode    *obs.StageClock
	clkJournal   *obs.StageClock
	clkQueueWait *obs.StageClock
	clkAdmit     *obs.StageClock
	clkStep      *obs.StageClock
	clkCkpt      *obs.StageClock
	stageSnap    obs.StageSnapshot
	stageSnapOK  bool
	bottleneck   atomic.Pointer[Bottleneck]

	// slo evaluates the burn-rate alerts on a background ticker; stopSLO
	// shuts the ticker goroutine down exactly once (Drain and abort).
	slo     *obs.SLOEngine
	sloStop chan struct{}
	sloDone chan struct{}
	sloOnce sync.Once

	audit *core.DecisionLog

	// scratch pools admission's per-call state (*admitScratch); runs pools
	// the shard queue elements (*run) with their reading slabs.
	scratch sync.Pool
	runs    sync.Pool
}

// New builds and starts the pool; callers must Drain it when done. With
// durability configured, recovery (checkpoint load + journal replay, every
// shard in parallel) runs here, before any worker starts, so a returned
// pool is always consistent; a failed recovery leaves the directory as it
// was.
func New(cfg Config) (*Pool, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	p := &Pool{cfg: cfg, drained: make(chan struct{})}
	p.scratch.New = func() any {
		return &admitScratch{open: make([]*run, cfg.Shards), budget: make([]int, cfg.Shards)}
	}
	p.runs.New = func() any { return new(run) }
	if reg := cfg.Metrics; reg != nil {
		p.readings = reg.Counter("fleet_readings_total", "readings accepted into shard queues")
		p.panics = reg.Counter("fleet_panics_total", "shard worker panics recovered by the supervisor")
		p.restarts = reg.Counter("fleet_restarts_total", "shard worker restarts after a recovered panic")
		p.queueWait = reg.Histogram("fleet_queue_wait_seconds",
			"time a reading spends in its shard queue between Submit and worker pickup", obs.LatencyBuckets())
		if cfg.Durability.Dir != "" {
			p.journalAppend = reg.Histogram("fleet_journal_append_seconds",
				"journal group-commit latency on the durable admission path", obs.LatencyBuckets())
			p.degradeEdges = reg.Counter("fleet_journal_degraded_total",
				"journal circuit-breaker trips (shard flipped to non-durable serving)")
		}
		p.alertEdges = reg.Counter("fleet_alert_transitions_total",
			"SLO alert state transitions (firing and resolving)")
		p.initStages(reg)
	}
	if err := p.initSLO(); err != nil {
		return nil, err
	}
	if cfg.AuditLog != nil {
		p.audit = core.NewDecisionLog(auditWriter{w: cfg.AuditLog, log: cfg.Logger})
	}
	p.shards = make([]*shard, cfg.Shards)
	for i := range p.shards {
		p.shards[i] = newShard(i, p)
	}
	if cfg.Durability.Dir != "" {
		if err := p.initDurability(); err != nil {
			return nil, err
		}
	}
	for i := range p.shards {
		p.wg.Add(1)
		go p.shards[i].run()
	}
	go p.runSLO()
	return p, nil
}

// shardIndex routes a deployment key to its shard: FNV-1a over the key, so
// one deployment's stream is always handled by the same worker, in order.
// The hash is inlined (bit-identical to hash/fnv's New32a) because the
// stdlib path forces a []byte conversion and a hash-state allocation on
// every Submit.
func shardIndex(deployment string, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(deployment); i++ {
		h ^= uint32(deployment[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// Submit routes one reading to its deployment's shard. It returns ErrClosed
// after Drain, ingest.ErrDropped when the DropNewest policy sheds the
// reading, and otherwise blocks until the shard accepts it. A reading the
// journal could not replay intact is refused with ErrInvalidReading, with
// durability on or off. With durability on, the reading is journaled before
// it is enqueued — once Submit returns nil, a crash cannot lose the
// reading. An empty deployment key names DefaultDeployment, as it does on
// the wire.
//
// Submit is a one-reading SubmitBatch: both go through the same admission
// path.
func (p *Pool) Submit(r ingest.Reading) error {
	one := [1]ingest.Reading{r}
	_, dropped, err := p.SubmitBatch(one[:])
	if err == nil && dropped > 0 {
		err = ingest.ErrDropped
	}
	return err
}

// SubmitBatch submits a decoded batch in order under one intake-lock
// acquisition — the staged path both wire decoders feed (it makes Pool an
// ingest.Consumer). Readings route to their shards exactly as Submit
// would: accepted counts enqueued readings, dropped those shed by the
// overflow policy. A terminal error (shutdown, or an invalid reading) stops
// the batch where it stands; the counts cover the prefix processed before
// it. The pool copies what it keeps: rs is the caller's again once
// SubmitBatch returns.
func (p *Pool) SubmitBatch(rs []ingest.Reading) (accepted, dropped int, err error) {
	if len(rs) == 0 {
		return 0, 0, nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return 0, 0, ErrClosed
	}
	return p.admit(rs)
}

// ErrInvalidReading reports a reading admission refused before journaling
// or enqueueing it: one the journal's frame codec could not replay
// intact (non-finite or missing values, a negative time, too many values, an
// oversize deployment key). The wrapped error names the reading and the
// fault.
var ErrInvalidReading = errors.New("fleet: invalid reading")

// run is the shard queue element: readings of one shard admitted together,
// in arrival order, with the journal sequence of the first (0 when
// durability is off), one enqueue stamp (zero when neither the queue-wait
// histogram nor a sampled trace wants it), and the index of the first
// reading carrying a recording trace (-1 when none). Runs and their slabs
// are pooled: the worker recycles a run once it has handled every reading.
type run struct {
	rs     []ingest.Reading
	first  uint64
	enq    time.Time
	traced int
}

// admitScratch is one admission call's reusable state: the run being built
// for each shard and its frame-byte budget so far, and the journal encoder
// and record buffer of the durable path.
type admitScratch struct {
	open   []*run
	budget []int
	enc    ingest.FrameEncoder
	rec    []byte
}

// getRun takes an empty run from the pool.
func (p *Pool) getRun() *run {
	r := p.runs.Get().(*run)
	r.traced = -1
	return r
}

// putRun clears a run's readings (dropping their references) and pools it.
func (p *Pool) putRun(r *run) {
	clear(r.rs)
	*r = run{rs: r.rs[:0]}
	p.runs.Put(r)
}

// readingBudget is a generous bound on one reading's share of a journal
// frame: its values, its key in the intern table, and the varint columns
// plus the frame's own header fields.
func readingBudget(r *ingest.Reading) int {
	return 8*len(r.Values) + len(r.Deployment) + 8*binary.MaxVarintLen64
}

// admit is the one admission path under Submit and SubmitBatch; the caller
// holds p.mu.RLock and has checked p.closed. It first validates the batch —
// a reading the journal could not replay ends the batch there, so the
// journal never holds a gap or a record that replay would stop at, and a
// pool without a journal diagnoses the same readings as one with it. It
// then splits the (valid prefix of the) batch by shard in arrival order,
// cutting each shard's share into runs of at most QueueLen readings and one
// frame's worth of bytes, and hands every run to admitRun as soon as it is
// cut.
func (p *Pool) admit(rs []ingest.Reading) (accepted, dropped int, err error) {
	valid := len(rs)
	for i := range rs {
		if verr := ingest.CheckFrameReading(&rs[i]); verr != nil {
			valid = i
			err = fmt.Errorf("%w %d of %d (deployment %q, sensor %d): %w",
				ErrInvalidReading, i, len(rs), rs[i].Deployment, rs[i].Sensor, verr)
			break
		}
	}
	sc := p.scratch.Get().(*admitScratch)
	flush := func(i int) {
		a, d := p.admitRun(p.shards[i], sc, sc.open[i])
		accepted += a
		dropped += d
		sc.open[i] = nil
	}
	var lastDep string
	var lastShard int
	for j := range rs[:valid] {
		dep := rs[j].Deployment
		if dep == "" {
			dep = ingest.DefaultDeployment
		}
		if dep != lastDep { // batches carry a deployment's readings in stretches
			lastDep, lastShard = dep, shardIndex(dep, len(p.shards))
		}
		i := lastShard
		size := readingBudget(&rs[j])
		if b := sc.open[i]; b != nil && (len(b.rs) == p.cfg.QueueLen || sc.budget[i]+size > ingest.MaxFramePayload) {
			flush(i)
		}
		b := sc.open[i]
		if b == nil {
			b = p.getRun()
			sc.open[i], sc.budget[i] = b, 0
		}
		sc.budget[i] += size
		b.rs = append(b.rs, rs[j])
		b.rs[len(b.rs)-1].Deployment = dep
		if b.traced < 0 && rs[j].Trace.Recording() {
			b.traced = len(b.rs) - 1
		}
	}
	for i, b := range sc.open {
		if b != nil {
			flush(i)
		}
	}
	p.scratch.Put(sc)
	return accepted, dropped, err
}

// admitRun reserves queue slots for one run and enqueues it, journaling it
// first when durability is on. Under Block it waits for every slot, one
// reserver per shard at a time so that two partial reservations cannot
// starve each other; under DropNewest it takes the free slots and sheds and
// counts the tail, which is never journaled. The run belongs to the shard
// once enqueued, so its length is read before.
func (p *Pool) admitRun(s *shard, sc *admitScratch, b *run) (accepted, dropped int) {
	n := len(b.rs)
	if p.cfg.Policy == DropNewest {
		accepted = s.slots.tryTake(n)
		if dropped = n - accepted; dropped > 0 {
			s.m.dropped.Add(uint64(dropped))
			clear(b.rs[accepted:])
			b.rs = b.rs[:accepted]
			if b.traced >= accepted {
				b.traced = -1
			}
		}
		if accepted == 0 {
			p.putRun(b)
			return 0, dropped
		}
	} else {
		s.reserve.Lock()
		s.slots.take(n)
		s.reserve.Unlock()
		accepted = n
	}
	if s.dur != nil {
		p.commitRun(s, sc, b)
	} else {
		s.enqueue(b)
	}
	return accepted, dropped
}

// commitRun encodes one reserved run and commits it through the shard's
// journal, which enqueues it. The encode, the commit and the write it waits
// on are all charged to the journal_append stage and the journal-append
// latency histogram, once per run with its reading count; the journal.append
// span joins the trace of the run's first sampled reading.
func (p *Pool) commitRun(s *shard, sc *admitScratch, b *run) {
	var start time.Time
	timed := p.journalAppend != nil || p.clkJournal != nil
	if timed {
		start = time.Now()
	}
	n, traced := len(b.rs), b.traced
	var sp *obs.Span
	if traced >= 0 {
		sp = p.cfg.Tracer.StartSpan("journal.append", b.rs[traced].Trace)
		sp.SetInt("readings", int64(n))
	}
	rec, err := sc.enc.AppendFrame(beginRecord(sc.rec[:0]), b.rs)
	if err != nil {
		// admit validated every reading and bounded the frame size, so
		// the encoder cannot refuse the run.
		panic(fmt.Sprintf("fleet: journal encode of a validated run: %v", err))
	}
	sc.rec = rec
	first, durable := s.dur.commit(rec, b)
	if timed {
		d := time.Since(start)
		p.journalAppend.Observe(d.Seconds())
		p.clkJournal.Observe(d, uint64(n))
	}
	sp.SetInt("seq", int64(first)+int64(traced))
	sp.End()
	if !durable {
		s.m.nondurable.Add(uint64(n))
	}
}

// enqueue stamps a reserved run and hands it to the worker queue. The run
// holds a slot per reading, and the queue has room for QueueLen runs, so the
// send never blocks. The run is the worker's once sent.
func (s *shard) enqueue(b *run) {
	n := len(b.rs)
	if s.pool.queueWait != nil || b.traced >= 0 {
		b.enq = time.Now()
	}
	s.queue <- b
	s.pool.readings.Add(uint64(n))
}

// slotCounter bounds the readings queued on one shard. Admission takes slots
// for a whole run before enqueueing it, and the worker gives them back when
// it takes the run off the queue, so QueueLen bounds the queued readings.
type slotCounter struct {
	used  atomic.Int64
	limit int64
	// freed is poked, never blocking, whenever slots come back; a Block
	// reserver short of slots sleeps on it. A stale poke only costs one
	// extra tryTake.
	freed chan struct{}
}

func newSlotCounter(limit int) *slotCounter {
	return &slotCounter{limit: int64(limit), freed: make(chan struct{}, 1)}
}

// tryTake takes up to n free slots without blocking and returns how many.
func (c *slotCounter) tryTake(n int) int {
	for {
		used := c.used.Load()
		k := min(int64(n), c.limit-used)
		if k <= 0 {
			return 0
		}
		if c.used.CompareAndSwap(used, used+k) {
			return int(k)
		}
	}
}

// take blocks until it has taken n slots (n ≤ limit), taking them as they
// free up. Callers serialise on shard.reserve, so a partial reservation
// only ever waits on the worker.
func (c *slotCounter) take(n int) {
	for got := c.tryTake(n); got < n; got += c.tryTake(n - got) {
		<-c.freed
	}
}

// release returns n slots and wakes a waiting reserver.
func (c *slotCounter) release(n int) {
	c.used.Add(-int64(n))
	select {
	case c.freed <- struct{}{}:
	default:
	}
}

// inUse is the number of readings holding a slot: queued, or reserved by a
// submitter that has not enqueued them yet.
func (c *slotCounter) inUse() int64 { return c.used.Load() }

// Drain stops intake, lets every shard work off its queue, flushes every
// open window through the detectors, and returns when all workers exit.
// Safe to call more than once.
func (p *Pool) Drain() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.drained
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.stopSLO()
	for _, s := range p.shards {
		close(s.queue)
	}
	p.wg.Wait()
	close(p.drained)
}

// abort simulates a crash for the recovery tests: intake stops and workers
// exit without flushing windowers or writing a final checkpoint, so the
// durable state on disk is exactly what the journal and periodic checkpoints
// captured — the same thing a SIGKILL would leave behind.
func (p *Pool) abort() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.drained
		return
	}
	p.closed = true
	p.aborted.Store(true)
	p.mu.Unlock()
	p.stopSLO()
	for _, s := range p.shards {
		close(s.queue)
	}
	p.wg.Wait()
	close(p.drained)
}

// Report runs the structural diagnosis on a deployment's live detector.
func (p *Pool) Report(deployment string) (core.Report, error) {
	d, err := p.lookup(deployment)
	if err != nil {
		return core.Report{}, err
	}
	det, derr := d.snapshot()
	if derr != nil {
		return core.Report{}, derr
	}
	if det == nil {
		return core.Report{}, ErrBootstrapping
	}
	return det.Report()
}

// Status is the live state of one deployment.
type Status struct {
	// Deployment is the key; Shard the worker that owns it.
	Deployment string `json:"deployment"`
	Shard      int    `json:"shard"`
	// State is the lifecycle state: "bootstrapping", "running", "failed"
	// (a terminal pipeline error), or "quarantined" (a recovered worker
	// panic isolated this deployment; the rest of the shard keeps going).
	State string `json:"state"`
	// Quarantined mirrors State == "quarantined" for quick filtering.
	Quarantined bool `json:"quarantined,omitempty"`
	// Bootstrapped reports whether the detector is running (false while
	// the bootstrap horizon is still buffering).
	Bootstrapped bool `json:"bootstrapped"`
	// Detector is the counter snapshot (zero until bootstrapped).
	Detector core.Stats `json:"detector"`
	// Health is the deployment's drift-telemetry snapshot (nil while
	// bootstrapping or with health tracking disabled).
	Health *obs.HealthSnapshot `json:"health,omitempty"`
	// CheckpointUnix and CheckpointAgeSeconds describe the owning shard's
	// newest checkpoint (zero with durability off or before the first one).
	CheckpointUnix       int64   `json:"checkpoint_unix,omitempty"`
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds,omitempty"`
	// Err is the terminal pipeline error, if the deployment died.
	Err string `json:"err,omitempty"`
}

// Status returns the live state of one deployment.
func (p *Pool) Status(deployment string) (Status, error) {
	d, err := p.lookup(deployment)
	if err != nil {
		return Status{}, err
	}
	st := Status{
		Deployment: deployment,
		Shard:      shardIndex(deployment, len(p.shards)),
		State:      d.stateName(),
	}
	st.Quarantined = st.State == StateQuarantined
	if u := p.shards[st.Shard].ckptUnix.Load(); u > 0 {
		st.CheckpointUnix = u
		st.CheckpointAgeSeconds = time.Since(time.Unix(u, 0)).Seconds()
	}
	det, derr := d.snapshot()
	if derr != nil {
		st.Err = derr.Error()
	}
	if det != nil {
		st.Bootstrapped = true
		st.Detector = det.Stats()
	}
	if ht := d.healthTracker(); ht != nil {
		snap := ht.Snapshot()
		st.Health = &snap
	}
	return st, nil
}

// Tracer returns the pool's span tracer (nil when tracing is off).
func (p *Pool) Tracer() *obs.Tracer { return p.cfg.Tracer }

// Decisions returns a deployment's retained decision records, oldest first.
// It returns ErrUnknownDeployment for a deployment never seen, and an empty
// slice when decision buffering is off or the deployment has not emitted a
// window yet.
func (p *Pool) Decisions(deployment string) ([]core.DecisionRecord, error) {
	d, err := p.lookup(deployment)
	if err != nil {
		return nil, err
	}
	ring := d.decisionRing()
	if ring == nil {
		return []core.DecisionRecord{}, nil
	}
	return ring.Records(), nil
}

// Health is the pool's readiness verdict, served on /healthz: "ok" until
// queue saturation, checkpoint staleness, quarantined deployments, or a
// drain degrade it.
type Health struct {
	// Ready mirrors Status == "ok", so load balancers and probes get a
	// stable boolean without string-matching.
	Ready bool `json:"ready"`
	// Status is "ok" or "degraded".
	Status string `json:"status"`
	// Reasons says what degraded the pool (empty when ok). Reasons are
	// always present in the degraded JSON document, so a 503 body reads
	// {"ready":false,"reasons":[...]} on its own.
	Reasons []string `json:"reasons,omitempty"`
	// QueueSaturation is the fullest shard queue as a fraction of capacity.
	QueueSaturation float64 `json:"queue_saturation"`
	// CheckpointAgeSeconds is the age of the stalest shard checkpoint
	// (zero before the first checkpoint or with durability off).
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds,omitempty"`
	// Quarantined lists deployments isolated by worker panics, sorted.
	Quarantined []string `json:"quarantined,omitempty"`
	// DegradedShards lists shards whose journal breaker is open — they keep
	// serving, but readings accepted there are not durable until recovery.
	DegradedShards []int `json:"degraded_shards,omitempty"`
	// Draining reports a pool past Drain.
	Draining bool `json:"draining,omitempty"`
}

// Health computes the readiness verdict. Degradation thresholds: any shard
// queue ≥ 90% full, any quarantined deployment, a checkpoint older than three
// intervals (interval-based durability only), a journal breaker open (shard
// serving non-durable), a drifting detector, a firing burn-rate alert, or a
// drain in progress.
func (p *Pool) Health() Health {
	h := Health{Status: "ok"}
	p.mu.RLock()
	h.Draining = p.closed
	p.mu.RUnlock()
	interval := time.Duration(0)
	if p.cfg.Durability.Dir != "" {
		interval = p.cfg.Durability.Interval
	}
	h.QueueSaturation = p.maxQueueSaturation()
	h.CheckpointAgeSeconds = p.maxCheckpointAge()
	var drifting []string
	for _, s := range p.shards {
		s.mu.RLock()
		for name, d := range s.deployments {
			if d.stateName() == StateQuarantined {
				h.Quarantined = append(h.Quarantined, name)
			}
			if d.healthTracker().Drifting() {
				drifting = append(drifting, name)
			}
		}
		s.mu.RUnlock()
	}
	sort.Strings(h.Quarantined)
	sort.Strings(drifting)
	if h.QueueSaturation >= 0.9 {
		h.Reasons = append(h.Reasons, fmt.Sprintf("queue saturation %.0f%%", h.QueueSaturation*100))
	}
	if len(h.Quarantined) > 0 {
		h.Reasons = append(h.Reasons, fmt.Sprintf("%d quarantined deployment(s)", len(h.Quarantined)))
	}
	h.DegradedShards = p.degradedShards()
	if len(h.DegradedShards) > 0 {
		h.Reasons = append(h.Reasons, fmt.Sprintf("journal degraded on %d shard(s): readings accepted non-durable", len(h.DegradedShards)))
	}
	if interval > 0 && h.CheckpointAgeSeconds > 3*interval.Seconds() {
		h.Reasons = append(h.Reasons, fmt.Sprintf("checkpoint %.0fs old (interval %s)", h.CheckpointAgeSeconds, interval))
	}
	if len(drifting) > 0 {
		h.Reasons = append(h.Reasons, fmt.Sprintf("detector drift on %s", strings.Join(drifting, ", ")))
	}
	if p.slo != nil {
		for _, a := range p.slo.Firing() {
			h.Reasons = append(h.Reasons, "alert firing: "+a.Name)
		}
	}
	if h.Draining {
		h.Reasons = append(h.Reasons, "draining")
	}
	if len(h.Reasons) > 0 {
		h.Status = "degraded"
	}
	h.Ready = h.Status == "ok"
	return h
}

// maxQueueSaturation is the fullest shard queue as a fraction of capacity.
func (p *Pool) maxQueueSaturation() float64 {
	var max float64
	for _, s := range p.shards {
		if sat := float64(s.slots.inUse()) / float64(s.slots.limit); sat > max {
			max = sat
		}
	}
	return max
}

// maxCheckpointAge is the age in seconds of the stalest shard checkpoint
// (zero before the first checkpoint or with durability off).
func (p *Pool) maxCheckpointAge() float64 {
	var max float64
	for _, s := range p.shards {
		if u := s.ckptUnix.Load(); u > 0 {
			if age := time.Since(time.Unix(u, 0)).Seconds(); age > max {
				max = age
			}
		}
	}
	return max
}

// degradedShards lists the shards whose journal breaker is currently open,
// in shard order (nil when none, or with durability off).
func (p *Pool) degradedShards() []int {
	var out []int
	for _, s := range p.shards {
		if s.dur != nil && s.dur.state().degraded {
			out = append(out, s.id)
		}
	}
	return out
}

// checkpointError is the sticky record of a shard's most recent checkpoint
// failure, surfaced on /status until the next checkpoint succeeds.
type checkpointError struct {
	Err string
	At  time.Time
}

// ShardStatus is one shard's durability view, served on /status so operators
// see which shards are degraded, for how long, and what the disk last said.
type ShardStatus struct {
	Shard int `json:"shard"`
	// Degraded reports an open journal breaker: the shard serves, but
	// accepted readings are not journaled.
	Degraded        bool    `json:"degraded,omitempty"`
	DegradedSeconds float64 `json:"degraded_seconds,omitempty"`
	// NonDurable counts readings accepted while degraded since startup.
	NonDurable uint64 `json:"non_durable_readings,omitempty"`
	// LastJournalError/Unix describe the newest journal write failure.
	LastJournalError     string `json:"last_journal_error,omitempty"`
	LastJournalErrorUnix int64  `json:"last_journal_error_unix,omitempty"`
	// CheckpointUnix is the newest checkpoint's wall-clock second (0 = none).
	CheckpointUnix int64 `json:"checkpoint_unix,omitempty"`
	// LastCheckpointError/Unix describe the newest checkpoint failure; a
	// later successful checkpoint clears them.
	LastCheckpointError     string `json:"last_checkpoint_error,omitempty"`
	LastCheckpointErrorUnix int64  `json:"last_checkpoint_error_unix,omitempty"`
}

// ShardStatuses returns every shard's durability view, in shard order. Empty
// with durability off.
func (p *Pool) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, 0, len(p.shards))
	for _, s := range p.shards {
		if s.dur == nil {
			continue
		}
		js := s.dur.state()
		st := ShardStatus{
			Shard:          s.id,
			Degraded:       js.degraded,
			NonDurable:     js.nonDurable,
			CheckpointUnix: s.ckptUnix.Load(),
		}
		if js.degraded {
			st.DegradedSeconds = time.Since(js.degradedSince).Seconds()
		}
		if js.lastErr != nil {
			st.LastJournalError = js.lastErr.Error()
			st.LastJournalErrorUnix = js.lastErrAt.Unix()
		}
		if ce := s.ckptErr.Load(); ce != nil {
			st.LastCheckpointError = ce.Err
			st.LastCheckpointErrorUnix = ce.At.Unix()
		}
		out = append(out, st)
	}
	return out
}

// Deployments lists every deployment seen, sorted.
func (p *Pool) Deployments() []string {
	var out []string
	for _, s := range p.shards {
		s.mu.RLock()
		for name := range s.deployments {
			out = append(out, name)
		}
		s.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

func (p *Pool) lookup(deployment string) (*deployment, error) {
	if deployment == "" {
		deployment = ingest.DefaultDeployment
	}
	s := p.shards[shardIndex(deployment, len(p.shards))]
	s.mu.RLock()
	d := s.deployments[deployment]
	s.mu.RUnlock()
	if d == nil {
		return nil, ErrUnknownDeployment
	}
	return d, nil
}

// shardMetrics are one shard's instruments; all fields are nil (and no-ops)
// when the pool has no registry.
type shardMetrics struct {
	depth       *obs.Gauge
	lag         *obs.Gauge
	dropped     *obs.Counter
	late        *obs.Counter
	windows     *obs.Counter
	duplicates  *obs.Counter
	checkpoints *obs.Counter
	ckptErrors  *obs.Counter
	ckptBytes   *obs.Gauge
	ckptUnix    *obs.Gauge
	nondurable  *obs.Counter
}

// batchMax is how many readings a busy shard handles between bookkeeping
// passes (depth gauge, lag scan) — enough to amortise them, few enough to
// keep metrics fresh under sustained load. An idle queue also triggers one.
const batchMax = 256

type shard struct {
	id    int
	pool  *Pool
	queue chan *run
	slots *slotCounter // counts queued readings; see admitRun
	// reserve lets one Block-policy submitter at a time reserve a run's
	// slots (see admitRun). It is held across the blocking take on
	// purpose: the holder waits only on the worker freeing slots, and
	// neither the worker nor any slot holder ever takes it.
	reserve sync.Mutex
	m       shardMetrics

	// cur and pos are the run in progress: workRun handles cur.rs[pos:].
	// They live on the shard (not the stack) so a recovered panic can
	// resume the rest of the run, skipping only the poisoned reading.
	// unbooked counts readings handled since the last bookkeeping pass.
	cur      *run
	pos      int
	unbooked int

	// Worker-owned durability cursors (no lock: only the worker goroutine
	// — or recovery, which runs before it starts — touches them).
	// ckptFailures/ckptCooldownUntil back off failed checkpoints (see
	// runCheckpoint); ckptErr is the sticky last failure /status reads.
	dur               *durableShard
	applied           uint64
	lastCkptSeq       uint64
	lastCkptTime      time.Time
	ckptFailures      int
	ckptCooldownUntil time.Time
	ckptErr           atomic.Pointer[checkpointError]
	current           *deployment // deployment being handled, for panic attribution
	// last is the deployment the worker looked up last: a shard's runs
	// carry a deployment's readings in stretches, so most lookups end here
	// without hashing the name (worker-owned).
	last *deployment
	// admitTick drives the 1-in-2^admitSampleShift window-admit timing
	// sample (worker-owned).
	admitTick uint64
	// lastTrace is the newest sampled context the worker applied; the next
	// checkpoint's span links into that trace (worker-owned).
	lastTrace obs.SpanContext

	// ckptUnix is the wall-clock second of the newest checkpoint, readable
	// from Health/Status without crossing into worker state (0 = none yet).
	ckptUnix atomic.Int64

	mu          sync.RWMutex // guards the deployments map (worker writes, Report reads)
	deployments map[string]*deployment
}

func newShard(id int, p *Pool) *shard {
	s := &shard{
		id:           id,
		pool:         p,
		queue:        make(chan *run, p.cfg.QueueLen),
		slots:        newSlotCounter(p.cfg.QueueLen),
		lastCkptTime: time.Now(),
		deployments:  make(map[string]*deployment),
	}
	if reg := p.cfg.Metrics; reg != nil {
		prefix := fmt.Sprintf("fleet_shard%d_", id)
		s.m = shardMetrics{
			depth:       reg.Gauge(prefix+"queue_depth", "readings waiting in this shard's queue"),
			lag:         reg.Gauge(prefix+"lag_windows", "windows buffered behind the watermark on this shard"),
			dropped:     reg.Counter(prefix+"dropped_total", "readings shed by the overflow policy"),
			late:        reg.Counter(prefix+"late_dropped_total", "readings dropped for arriving after their window closed"),
			windows:     reg.Counter(prefix+"windows_total", "observation windows stepped through detectors"),
			duplicates:  reg.Counter(prefix+"duplicates_total", "readings skipped as wire-seq retransmissions"),
			checkpoints: reg.Counter(prefix+"checkpoints_total", "checkpoints written"),
			ckptErrors:  reg.Counter(prefix+"checkpoint_errors_total", "checkpoint attempts that failed"),
			ckptBytes:   reg.Gauge(prefix+"checkpoint_bytes", "size of the newest checkpoint"),
			ckptUnix:    reg.Gauge(prefix+"checkpoint_unix_seconds", "wall-clock time of the newest checkpoint"),
			nondurable:  reg.Counter(prefix+"nondurable_total", "readings accepted while the journal was degraded (not journaled)"),
		}
	}
	return s
}

// deployment is one sensor network's streaming state, owned by its shard
// worker. wd and pending are worker-only; det and err cross the concurrency
// boundary (Report/Status snapshot them) and are guarded by mu.
type deployment struct {
	name        string
	wd          *ingest.Windower
	pending     []sensor.Reading
	first       time.Duration
	started     bool
	late        int    // wd.Late() already exported to the counter
	lastWireSeq uint64 // highest producer sequence applied, for retransmission dedup

	// pendingFrames caches pending's checkpoint frames (worker-only).
	// Whatever replaces pending other than by appending must drop it.
	pendingFrames *framedBuffer

	// detW and deadW are the worker's own mirrors of det and err != nil.
	// The worker (or recovery, which runs before it) is the only writer of
	// both, so the per-reading hot path reads them without crossing mu;
	// Report/Status still go through the locked fields.
	detW  *core.Shared
	deadW bool

	mu          sync.Mutex
	det         *core.Shared
	decisions   *core.DecisionRing // nil when Config.DecisionBuffer is 0
	health      *obs.HealthTracker // nil pre-bootstrap
	err         error
	quarantined bool
}

// decisionRing returns the deployment's decision ring under the lock.
func (d *deployment) decisionRing() *core.DecisionRing {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.decisions
}

// healthTracker returns the deployment's drift tracker under the lock; nil
// (on which every tracker method is a no-op) while bootstrapping. Nil
// receivers are tolerated so callers can chain it off a map probe.
func (d *deployment) healthTracker() *obs.HealthTracker {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.health
}

// snapshot returns the detector handle and terminal error under the lock.
func (d *deployment) snapshot() (*core.Shared, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.det, d.err
}

func (d *deployment) fail(err error) {
	d.deadW = true
	d.mu.Lock()
	d.err = err
	d.mu.Unlock()
}

// quarantine marks the deployment as isolated after a worker panic. The
// existing error check in handle/step then swallows the rest of its stream,
// while every other deployment on the shard keeps running.
func (d *deployment) quarantine(err error) {
	d.deadW = true
	d.mu.Lock()
	d.quarantined = true
	if d.err == nil {
		d.err = err
	}
	d.mu.Unlock()
}

func (d *deployment) stateName() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.quarantined:
		return StateQuarantined
	case d.err != nil:
		return StateFailed
	case d.det == nil:
		return StateBootstrapping
	default:
		return StateRunning
	}
}

// run supervises the shard worker: consume restarts after every recovered
// panic until the queue closes. A clean shutdown (Drain) flushes open
// windows and writes a final checkpoint; an abort skips both, like a crash.
func (s *shard) run() {
	defer s.pool.wg.Done()
	defer func() {
		if s.dur != nil {
			s.dur.mu.Lock()
			for s.dur.flushing {
				s.dur.idle.Wait()
			}
			s.dur.journal.close()
			s.dur.mu.Unlock()
		}
	}()
	for s.consume() {
		s.pool.restarts.Inc()
	}
	if s.pool.aborted.Load() {
		return
	}
	s.drain()
	if s.dur != nil {
		s.runCheckpoint()
	}
	s.m.depth.Set(0)
	s.m.lag.Set(0)
}

// consume works the queue until it closes (restart=false) or a panic is
// recovered (restart=true). A panic quarantines the deployment whose reading
// was being handled; the reading count it was part of stays applied (its
// journal sequence was recorded before handling), so checkpoints taken after
// a restart remain consistent with replay. The interrupted run stays on the
// shard: the restarted worker resumes it past the poisoned reading, so a
// panic never drops the innocent readings admitted alongside it.
func (s *shard) consume() (restart bool) {
	defer func() {
		if r := recover(); r != nil {
			s.pool.panics.Inc()
			if d := s.current; d != nil {
				d.quarantine(fmt.Errorf("fleet: shard %d worker panic: %v", s.id, r))
				s.current = nil
			}
			// Skip the reading that blew up; the restarted worker
			// picks up the rest of the run.
			s.pos++
			restart = true
		}
	}()
	for {
		if s.cur == nil {
			r, ok := <-s.queue
			if !ok {
				return false
			}
			s.take(r)
		}
		if !s.workRun() {
			return false
		}
	}
}

// take makes r the run in progress and frees its queue slots. The
// queue-wait clock is read once for the whole run and observed for every
// one of its readings; the ingest.queue_wait span joins the trace of the
// run's first sampled reading, whose trace ID is also the histogram
// exemplar, so a queue-wait spike on the dashboard links to the exact
// /debug/traces trace that sat through it.
func (s *shard) take(r *run) {
	s.cur, s.pos = r, 0
	n := len(r.rs)
	s.slots.release(n)
	if r.enq.IsZero() {
		return
	}
	wait := time.Since(r.enq)
	var traceID string
	if r.traced >= 0 {
		traceID = r.rs[r.traced].Trace.Trace.String()
	}
	s.pool.queueWait.ObserveN(wait.Seconds(), uint64(n), traceID)
	s.pool.clkQueueWait.Observe(wait*time.Duration(n), uint64(n))
	if r.traced >= 0 {
		sp := s.pool.cfg.Tracer.StartSpanAt("ingest.queue_wait", r.rs[r.traced].Trace, r.enq)
		sp.SetInt("shard", int64(s.id))
		sp.SetInt("readings", int64(n))
		sp.End()
	}
}

// workRun handles cur.rs[pos:], returning false on abort, then recycles the
// run. Per-reading state (applied cursor, current deployment) updates
// reading by reading so checkpoints and panic attribution stay exact;
// bookkeeping runs every batchMax readings and whenever the queue is empty.
func (s *shard) workRun() bool {
	r := s.cur
	for s.pos < len(r.rs) {
		if s.pool.aborted.Load() {
			return false
		}
		rd := &r.rs[s.pos]
		if rd.Trace.Recording() {
			s.lastTrace = rd.Trace
		}
		if r.first > 0 {
			s.applied = r.first + uint64(s.pos)
		}
		s.current = s.deployment(rd.Deployment)
		s.handle(s.current, rd)
		s.current = nil
		s.maybeCheckpoint()
		s.pos++
		if s.unbooked++; s.unbooked >= batchMax {
			s.bookkeep()
		}
	}
	s.cur, s.pos = nil, 0
	s.pool.putRun(r)
	if len(s.queue) == 0 {
		s.bookkeep()
	}
	return true
}

// bookkeep refreshes the queue-depth and lag gauges.
func (s *shard) bookkeep() {
	s.unbooked = 0
	s.m.depth.Set(float64(s.slots.inUse()))
	s.updateLag()
}

func (s *shard) deployment(name string) *deployment {
	if d := s.last; d != nil && d.name == name {
		return d
	}
	// Lock-free read: the worker goroutine is the map's only writer (its
	// own insert below runs under mu solely for Report/Health readers),
	// so its reads cannot race anything.
	d := s.deployments[name]
	if d == nil {
		d = &deployment{name: name}
		s.mu.Lock()
		s.deployments[name] = d
		s.mu.Unlock()
	}
	s.last = d
	return d
}

func (s *shard) handle(d *deployment, r *ingest.Reading) {
	if d.deadW {
		return // deployment died or is quarantined; swallow its stream
	}
	if r.Seq > 0 { // producer-stamped wire sequence: dedup retransmissions
		if r.Seq <= d.lastWireSeq {
			s.m.duplicates.Inc()
			return
		}
		d.lastWireSeq = r.Seq
	}
	if hook := s.pool.cfg.panicOn; hook != nil && hook(*r) {
		panic(fmt.Sprintf("injected fault for deployment %s", r.Deployment))
	}
	if hook := s.pool.cfg.stallOn; hook != nil {
		if ch := hook(*r); ch != nil {
			<-ch
		}
	}
	if d.detW == nil {
		if !d.started {
			d.started = true
			d.first = r.Time
		}
		if r.Time < d.first+s.pool.cfg.Bootstrap {
			d.pending = append(d.pending, r.Reading)
			return
		}
		if err := s.bootstrap(d); err != nil {
			d.fail(fmt.Errorf("bootstrap: %w", err))
			return
		}
	}
	s.feed(d, r.Reading, r.Trace)
}

// bootstrap seeds the model states by k-means over the buffered horizon —
// the same clustering pass the offline CLI runs over the first day — then
// replays the buffer through the fresh windower and detector.
func (s *shard) bootstrap(d *deployment) error {
	cfg := s.pool.cfg
	seedFrom := d.pending
	pastHorizon := func(r sensor.Reading) bool { return r.Time >= d.first+cfg.Bootstrap }
	if slices.ContainsFunc(seedFrom, pastHorizon) {
		// Only a checkpoint taken under a longer bootstrap horizon buffers
		// readings past this one: they replay below but do not seed.
		seedFrom = slices.DeleteFunc(slices.Clone(seedFrom), pastHorizon)
	}
	seeds, err := cluster.KMeansOf(seedFrom, func(r sensor.Reading) vecmat.Vector { return r.Values },
		cfg.States, rand.New(rand.NewSource(cfg.Seed)), 100)
	if err != nil {
		return fmt.Errorf("seed states: %w", err)
	}
	det, err := cfg.newDeploymentDetector(seeds)
	if err != nil {
		return err
	}
	wd, err := ingest.NewWindower(cfg.Window, cfg.Lateness)
	if err != nil {
		return err
	}
	ring, ht := s.wire(d.name, det)
	d.wd = wd
	shared := core.NewShared(det)
	d.mu.Lock()
	d.det = shared
	d.decisions = ring
	d.health = ht
	d.mu.Unlock()
	d.detW = shared
	pending := d.pending
	d.pending, d.pendingFrames = nil, nil
	for _, r := range pending {
		s.feed(d, r, obs.SpanContext{})
	}
	return nil
}

// auditWriter logs the audit log's first failed write. The DecisionLog
// keeps that error sticky and drops every later record, so this logs once;
// AuditErr reports it to the caller after the run.
type auditWriter struct {
	w   io.Writer
	log *slog.Logger
}

func (a auditWriter) Write(p []byte) (int, error) {
	n, err := a.w.Write(p)
	if err != nil && a.log != nil {
		a.log.Error("audit log write failed; dropping every later decision record", "error", err.Error())
	}
	return n, err
}

// AuditErr returns the audit log's first write error (nil without an audit
// log). Once it is set, every later decision record was dropped from the
// log.
func (p *Pool) AuditErr() error {
	if p.audit == nil {
		return nil
	}
	return p.audit.Err()
}

// namedSink stamps the deployment name on each decision record and fans it
// out to the deployment's ring and the pool-wide audit log. The record is
// borrowed (see core.DecisionSink); the ring packs it and the log encodes
// it within the call, so neither keeps it.
type namedSink struct {
	deployment string
	ring       *core.DecisionRing
	log        *core.DecisionLog
}

func (n *namedSink) Record(rec core.DecisionRecord) {
	rec.Deployment = n.deployment
	if n.ring != nil {
		n.ring.Record(rec)
	}
	if n.log != nil {
		n.log.Record(rec)
	}
}

// wire attaches the pool's tracer, step clock, decision sinks, and health
// tracker to a freshly built or restored detector; it returns the
// deployment's decision ring (nil when DecisionBuffer is 0) and health
// tracker.
func (s *shard) wire(name string, det *core.Detector) (*core.DecisionRing, *obs.HealthTracker) {
	cfg := s.pool.cfg
	det.SetTracer(cfg.Tracer)
	det.SetStepClock(s.pool.clkStep)
	var ring *core.DecisionRing
	if cfg.DecisionBuffer > 0 {
		ring = core.NewDecisionRing(cfg.DecisionBuffer)
	}
	if ring != nil || s.pool.audit != nil {
		det.SetDecisionSink(&namedSink{deployment: name, ring: ring, log: s.pool.audit})
	}
	ht := obs.NewHealthTracker()
	det.SetHealthTracker(ht)
	return ring, ht
}

func (s *shard) feed(d *deployment, r sensor.Reading, tc obs.SpanContext) {
	// Admit timing is 1-in-2^admitSampleShift sampled and pre-scaled (see
	// stages.go): two clock reads per reading would cost as much as the
	// admit itself.
	var admitStart time.Time
	timed := false
	if s.pool.clkAdmit != nil {
		if s.admitTick++; s.admitTick&(1<<admitSampleShift-1) == 0 {
			timed = true
			admitStart = time.Now()
		}
	}
	var sp *obs.Span
	if tc.Recording() { // only a sampled context yields a span
		sp = s.pool.cfg.Tracer.StartSpan("window.admit", tc)
	}
	wins := d.wd.AddTraced(r, tc)
	if timed {
		s.pool.clkAdmit.Observe(time.Since(admitStart)<<admitSampleShift, 1<<admitSampleShift)
	}
	if sp != nil {
		sp.SetInt("emitted", int64(len(wins)))
		sp.End()
	}
	for _, w := range wins {
		s.step(d, w)
		d.wd.Release(w.Readings) // nothing Step feeds keeps the array
	}
	if late := d.wd.Late(); late != d.late {
		s.m.late.Add(uint64(late - d.late))
		d.late = late
	}
}

func (s *shard) step(d *deployment, w network.Window) {
	if d.deadW {
		return
	}
	// The detector feeds the detector_step clock from its own stage marks
	// (see wire), so the shard takes no clock reads here.
	if _, err := d.detW.Step(w); err != nil {
		d.fail(fmt.Errorf("window %d: %w", w.Index, err))
		return
	}
	s.m.windows.Inc()
}

// updateLag publishes the shard's total event-time lag: windows buffered
// behind the watermark across its deployments.
func (s *shard) updateLag() {
	if s.m.lag == nil {
		return
	}
	total := 0
	s.mu.RLock()
	for _, d := range s.deployments {
		if d.wd != nil {
			total += d.wd.Pending()
		}
	}
	s.mu.RUnlock()
	s.m.lag.Set(float64(total))
}

// drain finishes every deployment once the queue closes: deployments still
// inside their bootstrap horizon are seeded from whatever arrived (matching
// the offline path on traces shorter than the horizon), then every open
// window is flushed through the detector. Each deployment's flush is
// panic-isolated, so one poisoned stream cannot abort the others' shutdown.
func (s *shard) drain() {
	s.mu.RLock()
	deps := make([]*deployment, 0, len(s.deployments))
	for _, d := range s.deployments {
		deps = append(deps, d)
	}
	s.mu.RUnlock()
	sort.Slice(deps, func(i, j int) bool { return deps[i].name < deps[j].name })
	for _, d := range deps {
		s.drainDeployment(d)
	}
}

func (s *shard) drainDeployment(d *deployment) {
	defer func() {
		if r := recover(); r != nil {
			s.pool.panics.Inc()
			d.quarantine(fmt.Errorf("fleet: shard %d drain panic: %v", s.id, r))
		}
	}()
	if d.deadW {
		return
	}
	if d.detW == nil {
		if len(d.pending) == 0 {
			return
		}
		if err := s.bootstrap(d); err != nil {
			d.fail(fmt.Errorf("bootstrap: %w", err))
			return
		}
	}
	for _, w := range d.wd.Flush() {
		s.step(d, w)
	}
}
