package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
)

// Tests for the one admission path Submit and SubmitBatch share: runs cut
// at QueueLen, weighted slot reservation under both overflow policies, and
// queue wait stamped once per run but counted per reading. The durable
// twins of the overflow tests live in journal_test.go.

// TestQueueWaitCountsEveryReading: the queue-wait histogram and the
// queue_wait stage clock each count every accepted reading exactly once,
// whichever entry point admitted it and whether or not it was journaled,
// and the stage's busy time is the histogram's sum.
func TestQueueWaitCountsEveryReading(t *testing.T) {
	tr := stuckTrace(t, 2)
	rs := fanOut(tr.Readings, "alpha", "beta")
	for _, durable := range []bool{false, true} {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("durable=%v,batched=%v", durable, batched), func(t *testing.T) {
				cfg := Config{Shards: 2, Seed: 1, QueueLen: 64, Metrics: obs.NewRegistry()}
				if durable {
					cfg.Durability = Durability{Dir: "mem", EveryN: 500, FS: newMemFS()}
				}
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if batched {
					cell{path: viaBatch, batch: 300}.feed(t, p, rs) // longer than the queue: runs are cut
				} else {
					for i, r := range rs {
						if err := p.Submit(r); err != nil {
							t.Fatalf("submit %d: %v", i, err)
						}
					}
				}
				p.Drain()
				want := uint64(len(rs))
				if got := p.readings.Value(); got != want {
					t.Fatalf("fleet_readings_total = %d, want %d", got, want)
				}
				if got := p.queueWait.Count(); got != want {
					t.Errorf("fleet_queue_wait_seconds count = %d, want %d accepted readings", got, want)
				}
				snap := p.stages.Snapshot(time.Now())
				if got := snap.Units[StageQueueWait]; got != want {
					t.Errorf("queue_wait stage units = %d, want %d accepted readings", got, want)
				}
				busy := float64(snap.BusyNS[StageQueueWait]) / 1e9
				sum := p.queueWait.Snapshot().Sum
				if math.Abs(busy-sum) > 1e-6*max(1, sum) {
					t.Errorf("queue_wait stage busy %.9fs, histogram sum %.9fs: the weighted observations disagree", busy, sum)
				}
			})
		}
	}
}

// TestSubmitBatchLongerThanQueue is the non-durable twin of
// TestDurableSubmitBatchLongerThanQueue: batches far longer than the queue
// under Block, from two producers whose deployments share shards, so runs
// are cut at the queue depth and slot reservations must not starve each
// other. The final reports must match the offline reference.
func TestSubmitBatchLongerThanQueue(t *testing.T) { submitBatchesLongerThanQueue(t, false) }

// TestDropNewestNeverQueuesDrops is the non-durable twin of
// TestDurableDropNewestNeverJournalsDrops: a DropNewest queue backed up by a
// stalled worker admits exactly the free slots of a burst, sheds and counts
// the rest (accepted + dropped = sent), never holds more than QueueLen
// readings, and the final reports are those of the accepted readings.
func TestDropNewestNeverQueuesDrops(t *testing.T) {
	const queueLen, burst = 16, 200
	tr := stuckTrace(t, 3)
	all := tagged(tr.Readings, "alpha", true)

	release, stalled := make(chan struct{}), make(chan struct{})
	var stallOnce sync.Once
	reg := obs.NewRegistry()
	p, err := New(Config{
		Shards: 1, Seed: 1, QueueLen: queueLen, Policy: DropNewest, Metrics: reg,
		stallOn: func(ingest.Reading) <-chan struct{} {
			var ch <-chan struct{}
			stallOnce.Do(func() { ch = release; close(stalled) })
			return ch
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := p.shards[0]
	// Watch the slot count for the whole run: it bounds the queued readings.
	var peak atomic.Int64
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			if u := s.slots.inUse(); u > peak.Load() {
				peak.Store(u)
			}
			select {
			case <-stop:
				return
			default:
				time.Sleep(10 * time.Microsecond)
			}
		}
	}()

	// The worker takes the first reading, frees its slot and stalls. The
	// burst then finds queueLen free slots for its first run and none
	// after, so exactly queueLen of it are admitted.
	if err := p.Submit(all[0]); err != nil {
		t.Fatal(err)
	}
	<-stalled
	accepted, dropped, err := p.SubmitBatch(all[1 : 1+burst])
	if err != nil || accepted != queueLen || dropped != burst-queueLen {
		t.Fatalf("burst: accepted %d dropped %d: %v (want %d / %d)", accepted, dropped, err, queueLen, burst-queueLen)
	}
	if u := s.slots.inUse(); u != queueLen {
		t.Fatalf("%d slots in use after the burst, want the full queue of %d", u, queueLen)
	}
	if err := p.Submit(all[1+burst]); !errors.Is(err, ingest.ErrDropped) {
		t.Fatalf("submit into a full queue: %v, want ErrDropped", err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("fleet_shard0_dropped_total %d", burst-queueLen+1)) {
		t.Fatalf("dropped counter does not show the %d shed readings:\n%s", burst-queueLen+1, firstLines(buf.String(), 30))
	}
	close(release)

	// Everything after the burst is retried until admitted.
	submitRetrying(t, p, all[1+burst:])
	p.Drain()
	close(stop)
	<-watched
	if got := peak.Load(); got > queueLen {
		t.Fatalf("queue held %d readings, more than QueueLen %d", got, queueLen)
	}
	admitted := append(append([]ingest.Reading(nil), all[:1+queueLen]...), all[1+burst:]...)
	newStream(t, admitted).check(t, p)
}

// submitRetrying submits each reading until the DropNewest queue admits it.
func submitRetrying(t *testing.T, p *Pool, rs []ingest.Reading) {
	t.Helper()
	for _, r := range rs {
		for {
			err := p.Submit(r)
			if err == nil {
				break
			}
			if !errors.Is(err, ingest.ErrDropped) {
				t.Fatal(err)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}
