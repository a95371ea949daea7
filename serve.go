package sensorguard

import (
	"fmt"
	"io"
	"net"
	"net/http"

	"sensorguard/internal/fleet"
	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/obs/profiles"
	"sensorguard/internal/obs/tsdb"
)

// Serving types, re-exported so the streaming collector can be embedded
// without reaching into internal packages (see docs/SERVING.md).
type (
	// IngestReading is one wire message: a sensor reading tagged with its
	// deployment key.
	IngestReading = ingest.Reading
	// IngestConsumer accepts decoded readings in batches (implemented by
	// Fleet).
	IngestConsumer = ingest.Consumer
	// IngestStats counts the outcome of one ingest stream (either codec).
	IngestStats = ingest.StreamStats
	// Fleet is the sharded collector pool: one detector worker per shard,
	// deployments routed by key.
	Fleet = fleet.Pool
	// FleetConfig parameterises the pool.
	FleetConfig = fleet.Config
	// FleetStatus is the live state of one deployment.
	FleetStatus = fleet.Status
	// OverflowPolicy says what Submit does when a shard queue is full.
	OverflowPolicy = fleet.Policy
	// IngestTCPServer accepts readings in either wire codec over TCP.
	IngestTCPServer = ingest.TCPServer
	// FleetDurability configures the write-ahead journal and periodic
	// checkpoints (see docs/RESILIENCE.md).
	FleetDurability = fleet.Durability
	// FleetHealth is the pool's readiness verdict, served on /healthz.
	FleetHealth = fleet.Health
	// FleetBottleneck is the pool's live per-stage bottleneck attribution,
	// served inside /status (see docs/OBSERVABILITY.md).
	FleetBottleneck = fleet.Bottleneck
	// MetricsTSDB is the embedded bounded time-series store behind
	// /metrics/range and the dashboard's historical graphs.
	MetricsTSDB = tsdb.DB
	// MetricsTSDBConfig sizes the time-series store.
	MetricsTSDBConfig = tsdb.Config
	// ProfileCapturer is the continuous-profiling ring behind /debug/profiles.
	ProfileCapturer = profiles.Capturer
	// ProfileConfig sizes the profile ring.
	ProfileConfig = profiles.Config
)

// NewMetricsTSDB builds an embedded time-series store; call Start to begin
// sampling and Close to stop. Hand it to FleetConfig.TSDB to serve
// /metrics/range.
func NewMetricsTSDB(cfg MetricsTSDBConfig) *MetricsTSDB { return tsdb.New(cfg) }

// NewProfileCapturer builds a profile-capture ring; call Start for periodic
// capture and Close to stop. Hand it to FleetConfig.Profiles so firing SLO
// alerts capture incident profiles.
func NewProfileCapturer(cfg ProfileConfig) (*ProfileCapturer, error) { return profiles.New(cfg) }

// Deployment lifecycle states reported in FleetStatus.State.
const (
	// FleetStateBootstrapping: the deployment is still buffering its
	// bootstrap horizon; no detector yet.
	FleetStateBootstrapping = fleet.StateBootstrapping
	// FleetStateRunning: the detector is live.
	FleetStateRunning = fleet.StateRunning
	// FleetStateFailed: the pipeline hit a terminal error.
	FleetStateFailed = fleet.StateFailed
	// FleetStateQuarantined: a recovered worker panic isolated this
	// deployment; the rest of its shard keeps running.
	FleetStateQuarantined = fleet.StateQuarantined
)

// Overflow policies (see OverflowPolicy).
const (
	// OverflowBlock applies backpressure to the producer.
	OverflowBlock = fleet.Block
	// OverflowDrop sheds the incoming reading and counts it.
	OverflowDrop = fleet.DropNewest
)

// Serving errors.
var (
	// ErrIngestDropped reports a reading shed by the overflow policy.
	ErrIngestDropped = ingest.ErrDropped
	// ErrFleetClosed reports a Submit after Drain began.
	ErrFleetClosed = fleet.ErrClosed
	// ErrUnknownDeployment reports a query for a never-seen deployment.
	ErrUnknownDeployment = fleet.ErrUnknownDeployment
	// ErrBootstrapping reports a deployment still buffering its bootstrap
	// horizon.
	ErrBootstrapping = fleet.ErrBootstrapping
	// ErrInvalidReading reports a reading a durable fleet refused before
	// journaling it (non-finite or missing values, negative time, over 4096
	// values, a deployment key over 4096 bytes).
	ErrInvalidReading = fleet.ErrInvalidReading
)

// NewFleet builds and starts a sharded collector pool; Drain it when done.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// ServeFleet serves the fleet's HTTP surface (see FleetHandler) on addr in
// the background.
func ServeFleet(addr string, p *Fleet, reg *MetricsRegistry) (*obs.Server, error) {
	return obs.ServeHandler(addr, fleet.Handler(p, reg))
}

// ParseOverflowPolicy maps "block" | "drop" to an OverflowPolicy.
func ParseOverflowPolicy(s string) (OverflowPolicy, error) { return fleet.ParsePolicy(s) }

// FleetHandler builds the serve-mode HTTP surface (POST /ingest,
// GET /report/{deployment}, GET /status/{deployment}, GET /deployments, plus
// the /metrics family when reg is non-nil).
func FleetHandler(p *Fleet, reg *MetricsRegistry) http.Handler { return fleet.Handler(p, reg) }

// ServeIngestTCP accepts readings in either wire codec on addr in the
// background, feeding them to p; the first byte of each connection picks
// the codec. Connections inherit the pool's tracer and feed its
// ingest_decode stage clock, so TCP ingestion participates in bottleneck
// attribution like POST /ingest does. Connections idle longer than five
// minutes are severed.
func ServeIngestTCP(addr string, p *Fleet) (*IngestTCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ingest: listen %s: %w", addr, err)
	}
	o := ingest.StreamOptions{Tracer: p.Tracer(), Decode: p.DecodeClock()}
	return ingest.ServeTCP(ln, p, ingest.DefaultTCPIdleTimeout, o), nil
}

// ReadIngestWire reads a stream of readings in either wire codec from r
// into p until EOF, sniffing the first byte: the binary frame magic selects
// the columnar frame codec, anything else is NDJSON (the default). The
// stream inherits the pool's tracer and feeds its ingest_decode stage
// clock, like the listeners.
func ReadIngestWire(r io.Reader, p *Fleet) (IngestStats, error) {
	return ingest.ReadWireStream(r, p, ingest.StreamOptions{Tracer: p.Tracer(), Decode: p.DecodeClock()})
}

// IngestFrameContentType is the Content-Type that negotiates the binary
// frame codec on POST /ingest.
const IngestFrameContentType = ingest.FrameContentType

// EncodeIngestFrame renders a batch of readings as one binary wire frame.
func EncodeIngestFrame(rs []IngestReading) ([]byte, error) { return ingest.EncodeFrame(rs) }

// EncodeIngestLine renders a reading as one NDJSON line (no newline).
func EncodeIngestLine(r IngestReading) ([]byte, error) { return ingest.EncodeLine(r) }

// DecodeIngestLine parses one NDJSON line into a reading.
func DecodeIngestLine(line []byte) (IngestReading, error) { return ingest.DecodeLine(line) }
