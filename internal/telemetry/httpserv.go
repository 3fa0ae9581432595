package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// OpsServer is the live ops endpoint behind the -listen flag: while a long
// experiment run is in flight it serves
//
//	/metrics   — the telemetry registry in Prometheus text exposition format
//	/healthz   — liveness ("ok")
//	/progress  — a JSON progress snapshot from the harness (cells done/total,
//	             in-flight cells with their current span, cache hit rate, ETA)
//	/debug/pprof/* — the standard Go profiler endpoints
//
// The server is read-only and write-beside like the rest of the package:
// handlers only snapshot state, so scraping can never perturb a run.
type OpsServer struct {
	lis      net.Listener
	srv      *http.Server
	done     chan struct{}
	serveErr error
}

// OpsSources names the data sources behind the ops endpoints. Registry
// backs /metrics; each func() any backs one JSON endpoint (nil funcs serve
// "{}"). The funcs keep this package dependency-free: the harness wires in
// exec progress, the incident log and live alert evaluation as closures, so
// telemetry never imports the packages it observes.
type OpsSources struct {
	Registry  *Registry
	Progress  func() any // /progress — exec engine progress snapshot
	Incidents func() any // /incidents — incident timeline + campaign summaries
	Alerts    func() any // /alerts — live alert-rule evaluation
	// Series backs /timeseries (nil serves an empty snapshot) and feeds the
	// /dashboard sparklines.
	Series *SeriesSet
	// Health backs /healthz: a non-empty return is the degradation reason
	// and turns the endpoint into 503 "degraded: <reason>". Nil (or an
	// empty return) keeps the plain 200 "ok" liveness probe.
	Health func() string
}

// jsonSource returns a handler serving src's value as indented JSON.
// Marshal happens before writing headers: a snapshot carrying a non-finite
// float (+Inf ETA, NaN quantile and friends) is not valid JSON, and
// encoding straight into the ResponseWriter would send a 200 with a
// silently truncated body. Sources are expected to pre-render such values
// (see FormatETA); if one slips through, report it.
func jsonSource(src func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var v any = struct{}{}
		if src != nil {
			v = src()
		}
		body, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(body, '\n'))
	}
}

// ServeOpsSources starts the ops endpoint with the full source set:
// /metrics, /healthz (degradation-aware when Health is wired), /progress,
// /incidents (the security observatory's incident timeline), /alerts (live
// alert-rule evaluation), /timeseries (windowed ring snapshots; ?series=
// filters by name or prefix, ?last=N trims each series to its newest N
// points), /dashboard (the self-contained live observatory page) and pprof. The
// listener is opened eagerly so a bad address fails before the run starts.
// The caller must Close the server; Close is graceful and waits for the
// serve goroutine, so no goroutine outlives it.
func ServeOpsSources(addr string, src OpsSources) (*OpsServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: ops listen %s: %w", addr, err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if src.Health != nil {
			if reason := src.Health(); reason != "" {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, "degraded: "+reason)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, src.Registry.Snapshot())
	})
	mux.HandleFunc("/progress", jsonSource(src.Progress))
	mux.HandleFunc("/incidents", jsonSource(src.Incidents))
	mux.HandleFunc("/alerts", jsonSource(src.Alerts))
	mux.HandleFunc("/timeseries", func(w http.ResponseWriter, r *http.Request) {
		var filter []string
		if q := r.URL.Query().Get("series"); q != "" {
			filter = strings.Split(q, ",")
		}
		last := 0
		if q := r.URL.Query().Get("last"); q != "" {
			if n, err := strconv.Atoi(q); err == nil && n > 0 {
				last = n
			}
		}
		// Snapshot is nil-safe: an unwired source serves the empty set.
		jsonSource(func() any { return src.Series.Snapshot(filter, last) })(w, r)
	})
	mux.HandleFunc("/dashboard", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(DashboardHTML))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &OpsServer{
		lis:  lis,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(lis); err != nil && err != http.ErrServerClosed {
			s.serveErr = err
		}
	}()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *OpsServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// URL returns the server's base URL.
func (s *OpsServer) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// Close shuts the server down gracefully — stop accepting, drain in-flight
// requests, close idle connections — and waits for the serve goroutine to
// exit, so a completed run leaves no lingering goroutines behind. Safe on a
// nil receiver and idempotent.
func (s *OpsServer) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	if err == nil {
		err = s.serveErr
	}
	return err
}
