package fleet

import (
	"encoding/json"
	"errors"
	"net/http"

	"sensorguard/internal/core"
	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/obs/profiles"
	"sensorguard/internal/obs/tsdb"
)

// Handler builds the serve-mode HTTP surface on top of the observability
// mux, so ingestion, live diagnosis, and /metrics share one listener:
//
//	POST /ingest                       NDJSON or binary-frame reading stream → ingest.StreamStats
//	GET  /report/{deployment}          live structural diagnosis as JSON
//	GET  /status/{deployment}          live counters/bootstrap state as JSON
//	GET  /status                       pool health + every deployment's status
//	GET  /deployments                  the deployments seen, as a JSON list
//	GET  /healthz                      readiness verdict (200 ok / 503 degraded)
//	GET  /alerts                       live burn-rate alert evaluations
//	GET  /debug/traces                 recent sampled traces (see obs.Tracer)
//	GET  /debug/decisions/{deployment} recent decision records, oldest first
//	GET  /debug/health/{deployment}    drift-telemetry snapshot as JSON
//	GET  /debug/dashboard              self-contained live ops dashboard
//	GET  /metrics/range                historical metric queries (Config.TSDB set)
//	GET  /debug/profiles[/{file}]      captured profile ring (Config.Profiles set)
//	/metrics, /metrics.json, /debug/vars, /debug/pprof  (from obs, reg != nil)
//
// reg may be nil, in which case the metrics routes are not mounted. /ingest
// picks up a Traceparent batch header when the pool runs a tracer, so
// producer-stamped traces continue through the fleet.
func Handler(p *Pool, reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	if reg != nil {
		obs.Mount(mux, reg)
	}
	if db := p.cfg.TSDB; db != nil {
		mux.Handle("GET /metrics/range", tsdb.Handler(db))
	}
	if pc := p.cfg.Profiles; pc != nil {
		mux.Handle("GET /debug/profiles", profiles.Handler(pc))
		mux.Handle("GET /debug/profiles/", profiles.Handler(pc))
	}
	mux.Handle("POST /ingest", ingest.IngestHandlerStaged(p, p.Tracer(), p.DecodeClock()))
	mux.HandleFunc("GET /report/{deployment}", func(w http.ResponseWriter, r *http.Request) {
		rep, err := p.Report(r.PathValue("deployment"))
		if err != nil {
			httpError(w, err)
			return
		}
		data, err := rep.MarshalIndentJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_, _ = w.Write(append(data, '\n'))
	})
	mux.HandleFunc("GET /status/{deployment}", func(w http.ResponseWriter, r *http.Request) {
		st, err := p.Status(r.PathValue("deployment"))
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, _ *http.Request) {
		type poolStatus struct {
			Health      Health        `json:"health"`
			Build       BuildInfo     `json:"build"`
			Bottleneck  *Bottleneck   `json:"bottleneck,omitempty"`
			Shards      []ShardStatus `json:"shards,omitempty"`
			Deployments []Status      `json:"deployments"`
		}
		ps := poolStatus{Health: p.Health(), Build: Build(), Bottleneck: p.Bottleneck(),
			Shards: p.ShardStatuses(), Deployments: []Status{}}
		for _, name := range p.Deployments() {
			if st, err := p.Status(name); err == nil {
				ps.Deployments = append(ps.Deployments, st)
			}
		}
		writeJSON(w, ps)
	})
	mux.HandleFunc("GET /deployments", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, p.Deployments())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		h := p.Health()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if h.Status != "ok" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h)
	})
	mux.HandleFunc("GET /alerts", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, struct {
			Alerts []obs.Alert `json:"alerts"`
		}{p.Alerts()})
	})
	mux.HandleFunc("GET /debug/health/{deployment}", func(w http.ResponseWriter, r *http.Request) {
		snap, err := p.HealthSnapshot(r.PathValue("deployment"))
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, struct {
			Deployment string             `json:"deployment"`
			Health     obs.HealthSnapshot `json:"health"`
		}{r.PathValue("deployment"), snap})
	})
	mux.Handle("GET /debug/dashboard", obs.DashboardHandler())
	mux.Handle("GET /debug/traces", obs.TraceHandler(p.Tracer()))
	mux.HandleFunc("GET /debug/decisions/{deployment}", func(w http.ResponseWriter, r *http.Request) {
		recs, err := p.Decisions(r.PathValue("deployment"))
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, struct {
			Deployment string                `json:"deployment"`
			Decisions  []core.DecisionRecord `json:"decisions"`
		}{r.PathValue("deployment"), recs})
	})
	return mux
}

func httpError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownDeployment):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrBootstrapping):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
