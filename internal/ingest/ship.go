package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"sensorguard/internal/obs"
)

// Shipper is the producer side of the ingest wire: it batches readings in
// either wire codec (NDJSON by default, one columnar binary frame per batch
// with ShipperConfig.Wire) and POSTs them to a collector's /ingest endpoint,
// riding out server
// restarts with sequence-numbered idempotent retransmission. It is the
// shipping path cmd/gdigen streams traces over and cmd/sgsim drives its
// labeled campaigns through.
//
// Each batch is the root of its own trace: the collector's sampler decides
// whether to record it, and retries of one batch share the trace ID so a
// duplicate shows up as one story, not several. Transient failures
// (connection refused/reset, timeouts, 5xx) are retried with exponential
// backoff and full jitter until the per-batch retry budget runs out; 4xx
// responses are permanent. Every retry is announced as one structured
// ingest_post_retry log event, so a supervisor can watch the producer ride
// out restarts.
//
// A Shipper is not safe for concurrent use: one producer goroutine owns it.
type Shipper struct {
	cfg     ShipperConfig
	client  *http.Client
	rng     *rand.Rand
	batch   bytes.Buffer // staged NDJSON lines (WireNDJSON)
	enc     FrameEncoder // staged frame (WireBinary)
	binary  bool
	pending int
	shipped int
}

// Wire codec names for ShipperConfig.Wire and the gdigen/sgsim -wire flag.
const (
	WireNDJSON = "ndjson"
	WireBinary = "binary"
)

// ShipperConfig parameterises a Shipper.
type ShipperConfig struct {
	// URL is the ingest endpoint (e.g. http://localhost:8080/ingest).
	URL string
	// BatchSize is the number of readings per POST (default 500).
	BatchSize int
	// RetryBudget bounds how long one batch keeps retrying through
	// transient errors before giving up (default 1 minute).
	RetryBudget time.Duration
	// Client overrides the HTTP client (default: 30s total timeout).
	Client *http.Client
	// Logger receives the ingest_post_retry events; nil discards them.
	Logger *slog.Logger
	// Seed freezes the retry jitter, so tests and replayed campaigns
	// back off identically.
	Seed int64
	// Wire selects the batch codec: WireNDJSON (the default) posts NDJSON
	// lines, WireBinary posts one columnar binary frame per batch (see
	// docs/SERVING.md, "Binary frame format").
	Wire string
}

// NewShipper validates the configuration and builds a shipper.
func NewShipper(cfg ShipperConfig) (*Shipper, error) {
	if cfg.URL == "" {
		return nil, errors.New("ingest: shipper needs a URL")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 500
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = time.Minute
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	switch cfg.Wire {
	case "", WireNDJSON, WireBinary:
	default:
		return nil, fmt.Errorf("ingest: unknown wire codec %q (want %s or %s)", cfg.Wire, WireNDJSON, WireBinary)
	}
	return &Shipper{
		cfg:    cfg,
		client: cfg.Client,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		binary: cfg.Wire == WireBinary,
	}, nil
}

// Add stages one reading, flushing the current batch first when it is full.
// The reading is encoded, its values copied, at Add: the caller may reuse
// r.Values as soon as Add returns. A reading the batch codec refuses is an
// error and leaves the batch as it was. ctx cancellation aborts a flush
// mid-retry.
func (s *Shipper) Add(ctx context.Context, r Reading) error {
	if s.pending >= s.cfg.BatchSize {
		if err := s.Flush(ctx); err != nil {
			return err
		}
	}
	if s.binary {
		if err := s.enc.Add(r); err != nil {
			return err
		}
	} else {
		line, err := EncodeLine(r)
		if err != nil {
			return err
		}
		s.batch.Write(line)
		s.batch.WriteByte('\n')
	}
	s.pending++
	return nil
}

// Flush ships the staged batch, retrying transient failures. A nil return
// means the collector acknowledged the batch; the readings cannot be lost to
// a crash on the far side after that (see docs/RESILIENCE.md).
func (s *Shipper) Flush(ctx context.Context) error {
	if s.pending == 0 {
		return nil
	}
	body := s.batch.Bytes()
	if s.binary {
		frame, err := s.enc.Frame()
		if err != nil {
			return err
		}
		body = frame
	}
	tc := obs.NewRootContext()
	if err := s.postBatch(ctx, body, tc); err != nil {
		return err
	}
	s.shipped += s.pending
	s.batch.Reset()
	s.enc.Reset()
	s.pending = 0
	return nil
}

// Shipped returns the number of readings acknowledged by the collector.
func (s *Shipper) Shipped() int { return s.shipped }

// postBatch POSTs one NDJSON batch stamped with the batch's trace context,
// retrying transient failures with exponential backoff and jitter until the
// retry budget runs out or ctx is cancelled.
func (s *Shipper) postBatch(ctx context.Context, body []byte, tc obs.SpanContext) error {
	deadline := time.Now().Add(s.cfg.RetryBudget)
	backoff := 100 * time.Millisecond
	for attempt := 1; ; attempt++ {
		status, err := s.postOnce(ctx, body, tc)
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("post %s: retry budget exhausted: %w", s.cfg.URL, err)
		}
		// Full jitter on the current backoff step, capped at 5s.
		sleep := time.Duration(s.rng.Int63n(int64(backoff))) + backoff/2
		s.cfg.Logger.Warn("ingest_post_retry",
			slog.String("event", "ingest_post_retry"),
			slog.Int("attempt", attempt),
			slog.Int64("backoff_ms", sleep.Milliseconds()),
			slog.Int("status", status),
			slog.String("trace_id", tc.Trace.String()),
			slog.String("error", err.Error()))
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// permanentError marks a failure retrying cannot fix.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }

// postOnce performs one POST attempt, returning the HTTP status code it got
// (0 when the transport failed before any response) alongside the verdict.
func (s *Shipper) postOnce(ctx context.Context, body []byte, tc obs.SpanContext) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.cfg.URL, bytes.NewReader(body))
	if err != nil {
		return 0, &permanentError{err}
	}
	if s.binary {
		req.Header.Set("Content-Type", FrameContentType)
	} else {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	if tc.Valid() {
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err // transport-level: refused, reset, timeout — retryable
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	switch {
	case resp.StatusCode < 300:
		return resp.StatusCode, nil
	case resp.StatusCode >= 500:
		return resp.StatusCode, fmt.Errorf("server %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	default:
		return resp.StatusCode, &permanentError{fmt.Errorf("post %s: %s: %s", s.cfg.URL, resp.Status, strings.TrimSpace(string(msg)))}
	}
}
