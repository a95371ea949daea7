package fleet

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/core"
	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
)

// Durability configures the write-ahead journal and periodic checkpoints.
// The contract: every reading Submit acknowledged is journaled before it is
// enqueued, and a checkpoint at sequence S captures exactly the state of
// sequences ≤ S — so recovery (newest valid checkpoint + journal-tail
// replay) rebuilds the state a process crash interrupted, byte for byte.
// Only checkpoints are fsynced: a power loss can lose acknowledged readings
// journaled since the newest checkpoint.
//
// Disk faults degrade that contract instead of failing ingest: a journal
// write error flips the shard into a non-durable degraded state (readings
// keep flowing from memory, counted as non-durable) while a circuit breaker
// retries a fresh segment with exponential backoff; the first successful
// reopen restores durability and forces a checkpoint to re-cover the
// degraded window. See docs/RESILIENCE.md, "Degraded mode".
type Durability struct {
	// Dir is the root directory for checkpoints and journals (one
	// subdirectory per shard). Empty disables durability entirely.
	Dir string
	// Interval is the wall-clock checkpoint cadence. When both Interval
	// and EveryN are zero, Interval defaults to one minute.
	Interval time.Duration
	// EveryN checkpoints after every N applied readings — a deterministic
	// trigger the crash tests rely on. Zero disables the count trigger.
	EveryN int
	// Recover loads the newest valid checkpoint and replays the journal
	// tail before the workers start. Without it, existing state in Dir is
	// ignored (and will be overwritten).
	Recover bool
	// RestoreDetector rebuilds a deployment's detector from its snapshot;
	// it must mirror Config.NewDetector's parameters. Default:
	// core.RestoreDetector over core.DefaultConfig with Window installed.
	RestoreDetector func(*core.Snapshot) (*core.Detector, error)
	// FS is the filesystem every journal and checkpoint operation goes
	// through (default chaos.OS). The chaos harness swaps in a
	// chaos.FaultFS to inject disk faults.
	FS chaos.FS
	// BreakerBase is the first retry delay after a journal write failure
	// flips the shard to degraded; each failed reopen probe doubles it up
	// to BreakerMax (defaults 500ms / 30s).
	BreakerBase time.Duration
	// BreakerMax caps the breaker's probe backoff.
	BreakerMax time.Duration
	// CheckpointCooldown is the first wait after a failed checkpoint
	// before another attempt; consecutive failures double it up to 10x
	// (default 10s). Without it a failed checkpoint would re-attempt on
	// every due trigger — a tight retry loop against a broken disk.
	CheckpointCooldown time.Duration
}

// durableShard is one shard's journal handle. nextSeq and the writer are
// shared between the submit path (producer goroutines) and the worker
// (rotation at checkpoints), serialised by mu; the worker never blocks while
// holding it, and submitters reserve their queue slots before committing, so
// no queue send inside commit can block and neither side can deadlock the
// other.
//
// Appends group-commit: each committer stages its run's sealed record into
// the pending batch under mu, and the first arriver becomes the batch leader
// — it drops the lock, writes every staged record in one syscall, enqueues
// the staged runs in sequence order, and wakes the followers. A submitter
// hands over a whole shard run per record, so even a lone committer pays one
// write per batch, not per reading.
// When the disk fails, the durableShard becomes a circuit breaker: a write
// error flips it open (degraded — commits assign sequences but skip the
// write, so ingest keeps serving from memory), and after an exponentially
// backed-off delay the next committer runs a half-open probe that tries to
// open a fresh segment based at nextSeq. Success closes the breaker and
// requests an immediate checkpoint (wantCkpt), shrinking the non-durable
// window to the readings accepted while degraded.
type durableShard struct {
	dir           string
	fs            chaos.FS
	shard, shards int
	mu            sync.Mutex
	idle          *sync.Cond // broadcast when flushing drops to false; rotation waits on it
	journal       *journalWriter
	nextSeq       uint64

	pending  *journalBatch // records staged for the next flush (nil when none)
	spare    []byte        // recycled batch buffer
	flushing bool          // a leader is writing or enqueueing outside the lock

	// enqueue hands a committed run (its first sequence set) to the shard
	// queue; the caller holds a queue slot per reading, so it never blocks.
	// It runs under mu or by the flushing leader, which keeps the queue in
	// sequence order.
	enqueue func(*run)

	// Breaker state (guarded by mu). probeAt is when the next half-open
	// probe may run; backoff doubles per failed probe.
	degraded      bool
	degradedSince time.Time
	lastErr       error
	lastErrAt     time.Time
	probeAt       time.Time
	backoff       time.Duration
	nonDurable    uint64 // readings accepted while degraded (not journaled)

	breakerBase, breakerMax time.Duration
	wantCkpt                bool // set on breaker close; worker checkpoints ASAP
	log                     *slog.Logger
	degradeEdge             *obs.Counter // fleet_journal_degraded_total transitions
}

// journalState is a point-in-time view of the breaker for Status/Health.
type journalState struct {
	degraded      bool
	degradedSince time.Time
	lastErr       error
	lastErrAt     time.Time
	nonDurable    uint64
}

func (ds *durableShard) state() journalState {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return journalState{
		degraded:      ds.degraded,
		degradedSince: ds.degradedSince,
		lastErr:       ds.lastErr,
		lastErrAt:     ds.lastErrAt,
		nonDurable:    ds.nonDurable,
	}
}

// trip opens the breaker after a journal I/O failure. Caller holds mu.
func (ds *durableShard) trip(err error) {
	now := time.Now()
	ds.lastErr = err
	ds.lastErrAt = now
	if !ds.degraded {
		ds.degraded = true
		ds.degradedSince = now
		ds.backoff = ds.breakerBase
		ds.degradeEdge.Inc()
		if ds.log != nil {
			ds.log.Warn("journal degraded: serving non-durable",
				"shard", ds.shard, "error", err.Error(),
				"probe_in", ds.backoff.String())
		}
	} else {
		// A failed probe: double the wait.
		ds.backoff = min(ds.backoff*2, ds.breakerMax)
	}
	ds.probeAt = now.Add(ds.backoff)
}

// probe runs the half-open attempt when due: open a fresh segment based at
// nextSeq. Success closes the breaker and requests a checkpoint. Caller
// holds mu; the probe's I/O happens under it, which is safe because commits
// in degraded mode never write (they only bump nextSeq) and the worker's
// rotate path also serialises on mu.
func (ds *durableShard) probe() {
	if !ds.degraded || time.Now().Before(ds.probeAt) {
		return
	}
	jw, err := openJournal(ds.fs, ds.dir, ds.shard, ds.shards, ds.nextSeq)
	if err != nil {
		ds.trip(err)
		return
	}
	old := ds.journal
	ds.journal = jw
	old.close()
	since := ds.degradedSince
	ds.degraded = false
	ds.wantCkpt = true
	if ds.log != nil {
		ds.log.Info("journal recovered: durability restored",
			"shard", ds.shard, "degraded_for", time.Since(since).String(),
			"non_durable", ds.nonDurable, "base", ds.nextSeq)
	}
}

// takeWantCkpt consumes the post-recovery checkpoint request.
func (ds *durableShard) takeWantCkpt() bool {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	want := ds.wantCkpt
	ds.wantCkpt = false
	return want
}

// journalBatch is one group-committed set of records. done closes when the
// batch is on disk (or failed) and its runs (staged in sequence order) are
// enqueued; err is valid after done. n counts the staged readings, not
// records, so a failed batch is accounted non-durable reading by reading.
type journalBatch struct {
	buf  []byte
	n    int
	runs []*run
	done chan struct{}
	err  error
}

// commit sequences one shard run, journals it as a single record, and
// enqueues it, returning the run's first sequence and whether it made it to
// disk. rec is the run's record as built by beginRecord and the frame
// encoder, head still unsealed; r holds the frame's readings in row order,
// each with a queue slot reserved by the caller. Under mu commit only
// assigns the contiguous range [nextSeq+1, nextSeq+len(r.rs)] and stages
// the sealed record; the batch leader writes outside the lock. It blocks
// until the run is enqueued; rec stays the caller's to reuse once it
// returns, while r belongs to the shard worker from the moment it is
// enqueued.
//
// A write failure does NOT reject the run: the shard degrades (breaker
// opens), the readings are accepted non-durable, and later commits skip the
// write entirely until a half-open probe reopens a fresh segment.
func (ds *durableShard) commit(rec []byte, r *run) (first uint64, durable bool) {
	n := uint64(len(r.rs))
	ds.mu.Lock()
	ds.probe() // half-open retry when due; no-op while healthy
	first = ds.nextSeq + 1
	ds.nextSeq += n
	r.first = first
	if ds.degraded {
		// Breaker open: accept from memory, count the durability gap. No
		// leader is flushing while the breaker is open, so enqueueing
		// under mu keeps the queue in sequence order.
		ds.nonDurable += n
		ds.enqueue(r)
		ds.mu.Unlock()
		return first, false
	}
	sealRecord(rec, first)
	if ds.pending == nil {
		ds.pending = &journalBatch{buf: ds.spare, done: make(chan struct{})}
		ds.spare = nil
	}
	b := ds.pending
	b.buf = append(b.buf, rec...)
	b.n += int(n)
	b.runs = append(b.runs, r)
	if ds.flushing {
		ds.mu.Unlock()
		<-b.done
		return first, b.err == nil
	}
	// Leader: write batches until none are staged. Followers that arrive
	// while the write syscall is in flight stage the next batch; the loop
	// picks it up.
	ds.flushing = true
	for ds.pending != nil {
		batch := ds.pending
		ds.pending = nil
		if ds.degraded {
			// A failed write tripped the breaker while this batch was
			// being staged; don't hammer the broken device.
			batch.err = ds.lastErr
			ds.nonDurable += uint64(batch.n)
			ds.enqueueBatch(batch)
		} else {
			w := ds.journal
			ds.mu.Unlock()
			werr := w.write(batch.buf)
			// Outside mu but still the only flusher, and the breaker
			// cannot open before this leader relocks: no other run can
			// be enqueued in between.
			ds.enqueueBatch(batch)
			ds.mu.Lock()
			batch.err = werr
			if werr != nil {
				ds.trip(werr)
				ds.nonDurable += uint64(batch.n)
			}
		}
		if cap(batch.buf) > cap(ds.spare) {
			ds.spare = batch.buf[:0]
		}
		close(batch.done)
	}
	ds.flushing = false
	ds.idle.Broadcast()
	ds.mu.Unlock()
	return first, b.err == nil
}

// enqueueBatch enqueues a flushed batch's runs in sequence order and drops
// the batch's references to them.
func (ds *durableShard) enqueueBatch(b *journalBatch) {
	for _, r := range b.runs {
		ds.enqueue(r)
	}
	b.runs = nil
}

// rotate swaps in a fresh journal segment based at nextSeq, waiting out any
// in-flight flush first: while no leader is writing, no frames are staged
// (the leader drains the pending batch before going idle), so every journaled
// sequence is on disk in the old segment and below the new base. A successful
// rotation while degraded doubles as breaker recovery — the disk just proved
// it can take a fresh segment.
func (ds *durableShard) rotate() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for ds.flushing {
		ds.idle.Wait()
	}
	jw, err := openJournal(ds.fs, ds.dir, ds.shard, ds.shards, ds.nextSeq)
	if err != nil {
		return err // keep appending to the old segment; replay still works
	}
	old := ds.journal
	ds.journal = jw
	old.close()
	if ds.degraded {
		ds.degraded = false
		if ds.log != nil {
			ds.log.Info("journal recovered: durability restored",
				"shard", ds.shard, "degraded_for", time.Since(ds.degradedSince).String(),
				"non_durable", ds.nonDurable, "base", ds.nextSeq)
		}
	}
	return nil
}

// deployment lifecycle states surfaced through Status.State.
const (
	StateBootstrapping = "bootstrapping"
	StateRunning       = "running"
	StateFailed        = "failed"
	StateQuarantined   = "quarantined"
)

func shardDir(root string, id int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%d", id))
}

// initDurability prepares the shard's directory and — with Recover — loads
// its persisted state before the worker starts.
func (s *shard) initDurability() error {
	cfg := s.pool.cfg.Durability
	dir := shardDir(cfg.Dir, s.id)
	if err := cfg.FS.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s.dur = &durableShard{
		dir:         dir,
		fs:          cfg.FS,
		shard:       s.id,
		shards:      len(s.pool.shards),
		breakerBase: cfg.BreakerBase,
		breakerMax:  cfg.BreakerMax,
		log:         s.pool.cfg.Logger,
		degradeEdge: s.pool.degradeEdges,
		enqueue:     s.enqueue,
	}
	s.dur.idle = sync.NewCond(&s.dur.mu)
	s.cleanTemporaries(dir)
	if cfg.Recover {
		return s.recoverState()
	}
	jw, err := openJournal(cfg.FS, dir, s.id, len(s.pool.shards), 0)
	if err != nil {
		return err
	}
	s.dur.journal = jw
	return nil
}

// cleanTemporaries removes stray checkpoint temporaries a crash or a failed
// write left behind. A .tmp is never a valid recovery input (only renamed
// checkpoints count), so deleting them is always safe; leaving them would
// slowly leak disk across crash loops.
func (s *shard) cleanTemporaries(dir string) {
	entries, err := s.dur.fs.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			_ = s.dur.fs.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// recoverState loads the newest fully-valid checkpoint, replays the journal
// tail through the normal handle path, and collapses the result into a fresh
// checkpoint + journal segment. Corrupt files fall back (older checkpoint,
// shorter replay); configuration mismatches are hard errors.
func (s *shard) recoverState() error {
	dir := s.dur.dir
	fsys := s.dur.fs
	n := len(s.pool.shards)

	ckpts, err := listCheckpoints(fsys, dir)
	if err != nil {
		return err
	}
	var loaded *checkpointFile
	var restored map[string]*deployment
	for i := len(ckpts) - 1; i >= 0; i-- {
		data, err := fsys.ReadFile(ckpts[i].path)
		if err != nil {
			continue
		}
		cf, err := decodeCheckpoint(data, s.id, n)
		if err != nil {
			continue // damaged or foreign: fall back to the previous one
		}
		if cf.header.WindowNS != int64(s.pool.cfg.Window) {
			return fmt.Errorf("fleet: checkpoint %s was taken with window %s, pool configured for %s",
				ckpts[i].path, time.Duration(cf.header.WindowNS), s.pool.cfg.Window)
		}
		deps, err := s.restoreAll(cf)
		if err != nil {
			continue // snapshot fails validation: whole checkpoint is out
		}
		loaded, restored = cf, deps
		break
	}
	var base uint64
	if loaded != nil {
		base = loaded.header.Seq
		s.mu.Lock()
		s.deployments = restored
		s.mu.Unlock()
	}

	segs, err := listJournals(fsys, dir)
	if err != nil {
		return err
	}
	// Replay starts at the segment with the largest base ≤ the checkpoint
	// seq (records accepted while that checkpoint was being written live
	// there) and runs through every later segment, skipping records the
	// checkpoint already covers. Replay stops at the first sequence gap:
	// past it, ordering guarantees are gone.
	floor := -1
	for i, sg := range segs {
		if sg.base <= base {
			floor = i
		}
	}
	if floor < 0 && len(segs) > 0 && base > 0 {
		return fmt.Errorf("fleet: shard %d journal gap: no segment covers checkpoint seq %d", s.id, base)
	}
	maxSeq, replayed := base, 0
	for i := max(floor, 0); i < len(segs); i++ {
		data, err := fsys.ReadFile(segs[i].path)
		if err != nil {
			return err
		}
		gap := false
		err = decodeSegment(data, s.id, n, func(seq uint64, r ingest.Reading) bool {
			// A checkpoint can land inside a record: skip exactly the
			// readings it covers.
			if seq <= base {
				return true
			}
			if seq != maxSeq+1 {
				gap = true
				return false
			}
			maxSeq = seq
			s.applied = seq
			s.handle(s.deployment(r.Deployment), r)
			replayed++
			return true
		})
		if err != nil {
			return fmt.Errorf("fleet: journal %s: %w", segs[i].path, err)
		}
		if gap {
			break
		}
	}
	s.dur.nextSeq = maxSeq

	if loaded == nil && replayed == 0 {
		jw, err := openJournal(fsys, dir, s.id, n, 0)
		if err != nil {
			return err
		}
		s.dur.journal = jw
		return nil
	}
	// Collapse recovery into one fresh checkpoint (which also opens the
	// next journal segment and prunes what the replay made redundant).
	s.applied = maxSeq
	return s.checkpoint()
}

// restoreAll rebuilds every deployment of a checkpoint, all-or-nothing.
func (s *shard) restoreAll(cf *checkpointFile) (map[string]*deployment, error) {
	out := make(map[string]*deployment, len(cf.deployments))
	for _, rec := range cf.deployments {
		d, err := s.restoreDeployment(rec)
		if err != nil {
			return nil, err
		}
		out[rec.Name] = d
	}
	return out, nil
}

// restoreDeployment rebuilds one deployment from its checkpoint record,
// validating every layer; it never returns a partially-restored deployment.
// Restored detectors are rewired to the pool's tracer and decision sinks —
// provenance survives a crash even though trace annotations do not.
func (s *shard) restoreDeployment(rec deploymentCheckpoint) (*deployment, error) {
	cfg := s.pool.cfg
	if rec.FirstNS < 0 {
		return nil, fmt.Errorf("fleet: deployment %s has negative first-reading time", rec.Name)
	}
	switch rec.State {
	case StateBootstrapping, StateRunning, StateFailed, StateQuarantined:
	default:
		return nil, fmt.Errorf("fleet: deployment %s has unknown state %q", rec.Name, rec.State)
	}
	d := &deployment{
		name:        rec.Name,
		started:     rec.Started,
		first:       time.Duration(rec.FirstNS),
		late:        rec.Late,
		lastWireSeq: rec.LastWireSeq,
		quarantined: rec.State == StateQuarantined,
	}
	pending, err := fromCheckpointReadings(rec.Pending)
	if err != nil {
		return nil, fmt.Errorf("fleet: deployment %s: %w", rec.Name, err)
	}
	d.pending = pending
	if (rec.Detector == nil) != (rec.Windower == nil) {
		return nil, fmt.Errorf("fleet: deployment %s has detector/windower mismatch", rec.Name)
	}
	if rec.Windower != nil {
		st, err := rec.Windower.state()
		if err != nil {
			return nil, fmt.Errorf("fleet: deployment %s: %w", rec.Name, err)
		}
		if st.Width != cfg.Window || st.Lateness != cfg.Lateness {
			return nil, fmt.Errorf("fleet: deployment %s windower was built for window %s/lateness %s, pool configured for %s/%s",
				rec.Name, st.Width, st.Lateness, cfg.Window, cfg.Lateness)
		}
		wd, err := ingest.RestoreWindower(st)
		if err != nil {
			return nil, fmt.Errorf("fleet: deployment %s: %w", rec.Name, err)
		}
		d.wd = wd
	}
	if rec.Detector != nil {
		det, err := cfg.Durability.RestoreDetector(rec.Detector)
		if err != nil {
			return nil, fmt.Errorf("fleet: deployment %s: %w", rec.Name, err)
		}
		d.decisions, d.health = s.wire(rec.Name, det)
		d.det = core.NewShared(det)
		d.detW = d.det
	}
	if rec.Err != "" {
		d.err = errors.New(rec.Err)
		d.deadW = true
	}
	if (rec.State == StateFailed || rec.State == StateQuarantined) && d.err == nil {
		return nil, fmt.Errorf("fleet: deployment %s is %s but carries no error", rec.Name, rec.State)
	}
	return d, nil
}

// maybeCheckpoint runs a checkpoint when a trigger is due — unless a recent
// checkpoint failure put the shard in cooldown, in which case the triggers
// stay armed but no attempt runs until the cooldown expires. Without the
// cooldown a broken disk would be re-attempted on every applied reading.
func (s *shard) maybeCheckpoint() {
	if s.dur == nil {
		return
	}
	if !s.ckptCooldownUntil.IsZero() && time.Now().Before(s.ckptCooldownUntil) {
		return
	}
	cfg := s.pool.cfg.Durability
	due := s.dur.takeWantCkpt() // breaker just closed: re-cover state ASAP
	if !due && cfg.EveryN > 0 && s.applied-s.lastCkptSeq >= uint64(cfg.EveryN) {
		due = true
	}
	if !due && cfg.Interval > 0 && time.Since(s.lastCkptTime) >= cfg.Interval {
		due = true
	}
	if !due {
		return
	}
	s.runCheckpoint()
}

// runCheckpoint attempts a checkpoint and does the failure bookkeeping: the
// error counter, the sticky last-error record /status serves, and an
// exponentially growing cooldown (base CheckpointCooldown, capped at 16x).
// Success resets all of it.
func (s *shard) runCheckpoint() error {
	var ckptStart time.Time
	if s.pool.clkCkpt != nil {
		ckptStart = time.Now()
	}
	err := s.checkpoint()
	if s.pool.clkCkpt != nil {
		s.pool.clkCkpt.Observe(time.Since(ckptStart), 1)
	}
	now := time.Now()
	if err == nil {
		s.ckptFailures = 0
		s.ckptCooldownUntil = time.Time{}
		s.ckptErr.Store(nil)
		return nil
	}
	s.m.ckptErrors.Inc()
	s.ckptFailures++
	wait := s.pool.cfg.Durability.CheckpointCooldown << min(s.ckptFailures-1, 4)
	s.ckptCooldownUntil = now.Add(wait)
	s.ckptErr.Store(&checkpointError{Err: err.Error(), At: now})
	if log := s.pool.cfg.Logger; log != nil {
		log.Warn("checkpoint failed; cooling down",
			"shard", s.id, "error", err.Error(), "retry_in", wait.String())
	}
	return err
}

// checkpoint persists the shard's state at the last applied sequence, then
// rotates the journal so replay after this checkpoint only reads forward.
func (s *shard) checkpoint() error {
	seq := s.applied
	// The checkpoint joins the trace of the newest sampled reading it covers;
	// on an error path the span is simply never recorded.
	var sp *obs.Span
	if s.lastTrace.Recording() {
		sp = s.pool.cfg.Tracer.StartSpan("checkpoint.append", s.lastTrace)
		s.lastTrace = obs.SpanContext{}
		sp.SetInt("seq", int64(seq))
	}
	s.mu.RLock()
	deps := make([]*deployment, 0, len(s.deployments))
	for _, d := range s.deployments {
		deps = append(deps, d)
	}
	s.mu.RUnlock()
	sort.Slice(deps, func(i, j int) bool { return deps[i].name < deps[j].name })
	records := make([]deploymentCheckpoint, 0, len(deps))
	for _, d := range deps {
		rec, err := s.exportDeployment(d)
		if err != nil {
			return err
		}
		records = append(records, rec)
	}
	hdr := checkpointHeader{
		Version:  1,
		Shard:    s.id,
		Shards:   len(s.pool.shards),
		Seq:      seq,
		WindowNS: int64(s.pool.cfg.Window),
	}
	bytes, err := writeCheckpoint(s.dur.fs, s.dur.dir, hdr, records)
	if err != nil {
		return err
	}
	sp.SetInt("bytes", int64(bytes))
	sp.End()
	now := time.Now()
	s.m.ckptBytes.Set(float64(bytes))
	s.m.ckptUnix.Set(float64(now.Unix()))
	s.m.checkpoints.Inc()
	s.ckptUnix.Store(now.Unix())
	s.lastCkptSeq = seq
	s.lastCkptTime = now

	// Rotate at nextSeq, not at the checkpoint seq: readings journaled
	// while the checkpoint was being built live in the old segment with
	// seq > checkpoint seq, so the new segment's base must sit above every
	// sequence already written. Segments then partition the sequence space
	// cleanly — segment with base b holds exactly (b, next segment's base].
	if err := s.dur.rotate(); err != nil {
		return err
	}
	s.prune()
	return nil
}

// exportDeployment captures one deployment's record. Detector state crosses
// the core.Shared mutex; everything else is worker-owned.
func (s *shard) exportDeployment(d *deployment) (deploymentCheckpoint, error) {
	rec := deploymentCheckpoint{
		Name:        d.name,
		State:       d.stateName(),
		Started:     d.started,
		FirstNS:     int64(d.first),
		Late:        d.late,
		LastWireSeq: d.lastWireSeq,
		Pending:     toCheckpointReadings(d.pending),
	}
	det, derr := d.snapshot()
	if derr != nil {
		rec.Err = derr.Error()
	}
	if det != nil {
		snap, err := det.Snapshot()
		if err != nil {
			return rec, fmt.Errorf("fleet: deployment %s: %w", d.name, err)
		}
		rec.Detector = snap
	}
	if d.wd != nil {
		st := toCheckpointWindower(d.wd.Export())
		rec.Windower = &st
	}
	return rec, nil
}

// prune keeps the newest two checkpoints and every journal segment recovery
// from the older of them would need.
func (s *shard) prune() {
	ckpts, err := listCheckpoints(s.dur.fs, s.dur.dir)
	if err != nil || len(ckpts) == 0 {
		return
	}
	keepFrom := 0
	if len(ckpts) > 2 {
		keepFrom = len(ckpts) - 2
	}
	for _, c := range ckpts[:keepFrom] {
		s.dur.fs.Remove(c.path)
	}
	oldest := ckpts[keepFrom].base
	segs, err := listJournals(s.dur.fs, s.dur.dir)
	if err != nil {
		return
	}
	floor := -1
	for i, sg := range segs {
		if sg.base <= oldest {
			floor = i
		}
	}
	for i := 0; i < floor; i++ {
		s.dur.fs.Remove(segs[i].path)
	}
}
