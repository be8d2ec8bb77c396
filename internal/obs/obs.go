// Package obs is the live observability service layer: an HTTP server
// exposing the telemetry registry as Prometheus text (/metrics), the
// channel-quality subset of it (/leakage), the latest predictor
// introspection snapshot (/introspect/pht), suite progress as JSON
// (/statusz), the archived run manifests (/runs), liveness and
// readiness probes, and the Go profiler (/debug/pprof) — plus the
// structured logger and the run-provenance ledger shared by the CLIs.
//
// Everything here lives outside the simulated machine: handlers read
// wall clocks and atomics but never write into the simulator, so
// serving a scrape mid-run cannot perturb the deterministic report on
// stdout (see DESIGN.md §3.14).
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"branchscope/internal/telemetry"
	"branchscope/internal/telemetry/promtext"
)

// Server assembles the endpoint handlers. Every field is optional:
// a zero Server still serves /healthz and pprof.
type Server struct {
	// Program names the process in /statusz ("experiments", ...).
	Program string
	// Metrics feeds /metrics and the /statusz histogram summaries.
	Metrics *telemetry.Registry
	// Status feeds /statusz; nil serves a minimal document.
	Status func() Status
	// Ready feeds /readyz; nil means always ready.
	Ready func() bool
	// Introspect feeds /introspect/pht with the latest predictor
	// snapshot (typically leakage.LatestIntrospection); nil or a nil
	// return serves an "available": false document.
	Introspect func() any
	// Runs feeds /runs with the archived run manifests (typically a
	// runstore.List closure over the -archive directory, injected by
	// cliutil so obs stays a leaf). nil serves an empty listing.
	Runs func() (any, error)
	// Fabric, when non-nil, is mounted under /fabric/ — the
	// distributed-campaign worker endpoint (typically a fabric.Worker
	// handler, injected by cliutil so obs stays a leaf). nil serves
	// 404 under the prefix.
	Fabric http.Handler
	// Jobs, when non-nil, is mounted at /jobs and /jobs/ — the
	// multi-tenant campaign job service (typically a svc.Service
	// handler, injected by cliutil so obs stays a leaf). nil serves
	// 404 under the prefix.
	Jobs http.Handler
	// Log receives handler errors; nil discards them.
	Log *slog.Logger
}

// Handler builds the endpoint mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Ready != nil && !s.Ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", promtext.ContentType)
		if err := promtext.Write(w, s.Metrics.Snapshot()); err != nil && s.Log != nil {
			s.Log.Error("metrics scrape failed", "err", err)
		}
	})
	mux.HandleFunc("/leakage", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", promtext.ContentType)
		// Scoped view over one registry snapshot: scrapes must never
		// create instruments, or -metrics-out would become
		// scrape-dependent and break its determinism contract.
		snap := s.Metrics.Snapshot().Filter("leakage.")
		if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) == 0 {
			fmt.Fprintln(w, "# leakage: no windows observed yet")
			return
		}
		if err := promtext.Write(w, snap); err != nil && s.Log != nil {
			s.Log.Error("leakage scrape failed", "err", err)
		}
	})
	mux.HandleFunc("/introspect/pht", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		var snap any
		if s.Introspect != nil {
			snap = s.Introspect()
		}
		if err := WriteIntrospection(w, snap); err != nil && s.Log != nil {
			s.Log.Error("introspection render failed", "err", err)
		}
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		st := Status{Schema: StatusSchema}
		if s.Status != nil {
			st = s.Status()
		}
		if st.Program == "" {
			st.Program = s.Program
		}
		st.PID = os.Getpid()
		st.GoVersion = runtime.Version()
		snap := s.Metrics.Snapshot()
		st.Leakage = leakageStatus(snap)
		for _, c := range snap.Counters {
			if c.Name == "core.probe.degradations" {
				st.DegradedProbes = c.Value
			}
		}
		for _, h := range snap.Histograms {
			st.Histograms = append(st.Histograms, HistogramStatus{
				Name:  h.Name,
				Count: h.Count,
				Mean:  h.Mean(),
				P50:   h.Quantile(0.50),
				P95:   h.Quantile(0.95),
				P99:   h.Quantile(0.99),
				Max:   h.Max,
			})
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil && s.Log != nil {
			s.Log.Error("statusz render failed", "err", err)
		}
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		doc := struct {
			Schema string `json:"schema"`
			Runs   any    `json:"runs"`
		}{Schema: "branchscope.runs/v1", Runs: []any{}}
		if s.Runs != nil {
			runs, err := s.Runs()
			if err != nil {
				if s.Log != nil {
					s.Log.Error("runs listing failed", "err", err)
				}
				http.Error(w, fmt.Sprintf("listing runs: %v", err), http.StatusInternalServerError)
				return
			}
			if runs != nil {
				doc.Runs = runs
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil && s.Log != nil {
			s.Log.Error("runs render failed", "err", err)
		}
	})
	if s.Fabric != nil {
		mux.Handle("/fabric/", http.StripPrefix("/fabric", s.Fabric))
	}
	if s.Jobs != nil {
		mux.Handle("/jobs", s.Jobs)
		mux.Handle("/jobs/", s.Jobs)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "branchscope observability (%s)\nendpoints: /metrics /leakage /introspect/pht /statusz /runs /healthz /readyz /debug/pprof/\n", s.Program)
	})
	return mux
}

// leakageStatus extracts the /statusz channel-quality section from an
// already-taken registry snapshot, or nil before the first completed
// attack window. Reading the snapshot (never the registry) keeps
// scrapes from creating instruments.
func leakageStatus(snap telemetry.Snapshot) *LeakageStatus {
	var windows uint64
	for _, c := range snap.Counters {
		if c.Name == "leakage.windows" {
			windows = c.Value
		}
	}
	if windows == 0 {
		return nil
	}
	ls := &LeakageStatus{Windows: windows}
	for _, g := range snap.Gauges {
		switch g.Name {
		case "leakage.ber":
			ls.BitErrorRate = g.Value
		case "leakage.mi_bits":
			ls.MutualInformationBits = g.Value
		case "leakage.capacity_bits":
			ls.CapacityBits = g.Value
		case "leakage.snr":
			ls.SNR = g.Value
		}
	}
	return ls
}

// Start binds addr (":8080", "127.0.0.1:0", ...) and serves in the
// background. The returned Handle reports the bound address — so
// ":0" callers can discover their port — and shuts the server down
// gracefully.
func (s *Server) Start(addr string) (*Handle, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	h := &Handle{addr: ln.Addr(), done: make(chan struct{})}
	// Count in-flight requests so Drain can report how many a
	// deadline-bounded shutdown had to abandon. While draining, reject
	// submissions of new work (fabric assignments, service jobs) with
	// 503 + Retry-After instead of accepting tasks that shutdown will
	// abandon — reads and cancels still pass, so clients can observe
	// the drain and withdraw their own work.
	inner := s.Handler()
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.inflight.Add(1)
		defer h.inflight.Add(-1)
		if h.draining.Load() && rejectWhileDraining(r) {
			w.Header().Set("Retry-After", "30")
			http.Error(w, "draining: not accepting new work", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	})
	srv := &http.Server{Handler: counted, ReadHeaderTimeout: 5 * time.Second}
	h.srv = srv
	go func() {
		defer close(h.done)
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			h.serveErr = err
			if s.Log != nil {
				s.Log.Error("observability server failed", "addr", ln.Addr().String(), "err", err)
			}
		}
	}()
	return h, nil
}

// Handle is a started server.
type Handle struct {
	addr     net.Addr
	srv      *http.Server
	done     chan struct{}
	serveErr error
	inflight atomic.Int64
	draining atomic.Bool
}

// rejectWhileDraining reports whether a request submits new work the
// draining server must shed: fabric task dispatches and service job
// submissions. Job cancellation (POST /jobs/{id}/cancel) stays
// allowed — withdrawing work helps a drain, it doesn't add to it.
func rejectWhileDraining(r *http.Request) bool {
	if r.Method != http.MethodPost {
		return false
	}
	return r.URL.Path == "/fabric/run" || r.URL.Path == "/jobs" || r.URL.Path == "/jobs/"
}

// BeginDrain flips the server into draining mode: work-submitting
// requests are rejected with 503 + Retry-After while everything else
// (scrapes, status reads, job streams, cancels) keeps serving. Drain
// calls it first; exposing it separately lets a host shed new work
// before it starts waiting on in-flight jobs. Nil-safe.
func (h *Handle) BeginDrain() {
	if h != nil {
		h.draining.Store(true)
	}
}

// DrainResult reports how a graceful shutdown went: whether every
// in-flight scrape/ledger request completed before the deadline, how
// many were abandoned when it hit, and how long the drain waited.
type DrainResult struct {
	Drained bool
	Active  int
	Waited  time.Duration
}

// String renders the result for the final shutdown log line.
func (d DrainResult) String() string {
	if d.Drained {
		return fmt.Sprintf("drained in-flight requests in %s", d.Waited.Round(time.Millisecond))
	}
	return fmt.Sprintf("drain deadline hit after %s with %d request(s) in flight (force-closed)",
		d.Waited.Round(time.Millisecond), d.Active)
}

// Drain shuts the server down gracefully, letting in-flight requests
// finish until ctx expires; on deadline it force-closes what remains.
// Either way the serve loop has exited when Drain returns. Nil-safe;
// idempotent.
func (h *Handle) Drain(ctx context.Context) (DrainResult, error) {
	if h == nil {
		return DrainResult{Drained: true}, nil
	}
	h.BeginDrain()
	start := time.Now()
	err := h.srv.Shutdown(ctx)
	res := DrainResult{Waited: time.Since(start)}
	if err != nil {
		// Deadline hit with connections still open: report what was
		// abandoned, then close them so the serve loop exits.
		res.Active = int(h.inflight.Load())
		h.srv.Close()
	} else {
		res.Drained = true
	}
	<-h.done
	if err == nil {
		err = h.serveErr
	}
	return res, err
}

// Addr returns the bound address ("127.0.0.1:43521").
func (h *Handle) Addr() string {
	if h == nil {
		return ""
	}
	return h.addr.String()
}
