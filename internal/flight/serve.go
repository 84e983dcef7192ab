package flight

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"l15cache/internal/buildinfo"
	"l15cache/internal/metrics"
	"l15cache/internal/telemetry"
)

// Server is the live-inspection endpoint the cmd tools expose with -http:
//
//	/metrics         registry snapshot — Prometheus text exposition by
//	                 default, JSON with ?format=json or Accept: application/json
//	/metrics/history the telemetry sampler's retained ring as JSONL
//	/metrics/stream  SSE feed of sampler points (the dashboard's source)
//	/events          SSE stream of flight events
//	/dashboard       self-contained live dashboard page
//	/healthz         liveness probe with build attribution
//
// Every metrics view merges the deterministic registry with the
// operational telemetry registry, so operators see one namespace while
// archived artifacts keep reading only the deterministic registry. The
// server reads the wall clock only to pace SSE polling — the flight
// events it streams stay cycle-stamped, so serving never perturbs a
// recording (puritycheck's flight carve-out encodes exactly this
// split).
type Server struct {
	// Registry backs the deterministic half of /metrics; nil means
	// metrics.Default.
	Registry *metrics.Registry
	// Runtime backs the operational half; nil means telemetry.Runtime.
	Runtime *metrics.Registry
	// Recorder backs /events; nil serves an empty stream.
	Recorder *Recorder
	// Sampler feeds /metrics/history and /metrics/stream; nil makes the
	// server own one over the merged registries, started lazily and
	// stopped by Shutdown.
	Sampler *telemetry.Sampler
	// Poll is the SSE polling interval (default 250ms).
	Poll time.Duration

	mu         sync.Mutex
	srv        *http.Server
	closed     chan struct{}
	ownSampler *telemetry.Sampler
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics/history", s.handleHistory)
	mux.HandleFunc("/metrics/stream", s.handleStream)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/dashboard", telemetry.HandleDashboard)
	return mux
}

// Serve serves the handler on ln until the listener fails or Shutdown is
// called (which reports nil, not http.ErrServerClosed).
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	if s.closed == nil {
		s.closed = make(chan struct{})
	}
	s.srv = srv
	s.mu.Unlock()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return fmt.Errorf("flight: http: %w", err)
	}
	return nil
}

// ListenAndServe serves the handler on addr until the listener fails or
// Shutdown is called. It returns the bound address through the callback
// before blocking, so callers can log the resolved port of ":0"
// listeners.
func (s *Server) ListenAndServe(addr string, onListen func(addr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("flight: http: %w", err)
	}
	if onListen != nil {
		onListen(ln.Addr().String())
	}
	return s.Serve(ln)
}

// Shutdown gracefully stops a Serve/ListenAndServe server: open SSE
// streams are told to drain (their next poll tick exits), in-flight
// requests finish within ctx, and the server-owned sampler stops. Safe to
// call more than once and before Serve.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed == nil {
		s.closed = make(chan struct{})
	}
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	srv, own := s.srv, s.ownSampler
	s.srv, s.ownSampler = nil, nil
	s.mu.Unlock()

	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	if own != nil {
		own.Stop()
	}
	if err != nil {
		return fmt.Errorf("flight: shutdown: %w", err)
	}
	return nil
}

func (s *Server) registry() *metrics.Registry {
	if s.Registry != nil {
		return s.Registry
	}
	return metrics.Default
}

func (s *Server) runtime() *metrics.Registry {
	if s.Runtime != nil {
		return s.Runtime
	}
	return telemetry.Runtime
}

// snapshot is the merged live view all metrics endpoints serve.
func (s *Server) snapshot() metrics.Snapshot {
	return telemetry.Merge(s.registry().Snapshot(), s.runtime().Snapshot())
}

// sampler returns the configured sampler, or lazily starts a
// server-owned one over the merged registries.
func (s *Server) sampler() *telemetry.Sampler {
	if s.Sampler != nil {
		return s.Sampler
	}
	poll := s.poll()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ownSampler == nil {
		s.ownSampler = telemetry.NewSampler(s.snapshot, poll, 0)
		s.ownSampler.Start()
	}
	return s.ownSampler
}

// closedCh returns the shutdown-drain channel (created on demand so
// Handler-only uses, e.g. tests, work without Serve).
func (s *Server) closedCh() chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed == nil {
		s.closed = make(chan struct{})
	}
	return s.closed
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	body := struct {
		OK      bool              `json:"ok"`
		Events  int               `json:"events"`
		Dropped uint64            `json:"dropped"`
		Build   map[string]string `json:"build"`
	}{
		OK:      true,
		Events:  s.Recorder.Len(),
		Dropped: s.Recorder.Dropped(),
		Build:   buildinfo.Map(),
	}
	data, err := json.Marshal(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		log.Printf("flight: healthz response write: %v", err)
	}
}

// wantsJSON reports whether the request negotiated the JSON snapshot
// form; the default is the Prometheus text exposition.
func wantsJSON(r *http.Request) bool {
	if r.URL.Query().Get("format") == "json" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	var body []byte
	if wantsJSON(r) {
		data, err := snap.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		body = append(data, '\n')
	} else {
		w.Header().Set("Content-Type", telemetry.ContentType)
		body = telemetry.Exposition(snap)
	}
	if _, err := w.Write(body); err != nil {
		// The response is already committed; nothing to send the client
		// but the truncation must not pass silently in the logs.
		log.Printf("flight: metrics response write: %v", err)
	}
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	s.sampler().HandleHistory(w, r)
}

// handleStream streams sampler points as SSE: one "event: sample" message
// per captured Sample, data = its JSON encoding. The stream replays the
// retained ring (or starts at ?since=SEQ) and then follows live samples
// until the client disconnects or the server shuts down.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	sam := s.sampler()
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		fmt.Sscanf(v, "%d", &since)
	}
	tick := time.NewTicker(s.poll())
	defer tick.Stop()
	closed := s.closedCh()

	for {
		for _, sample := range sam.SamplesSince(since) {
			since = sample.Seq + 1
			data, err := json.Marshal(sample)
			if err != nil {
				continue
			}
			if _, err := w.Write(append(append([]byte("event: sample\ndata: "), data...), '\n', '\n')); err != nil {
				s.dropClient(err)
				return
			}
		}
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-closed:
			return
		case <-tick.C:
		}
	}
}

func (s *Server) poll() time.Duration {
	if s.Poll > 0 {
		return s.Poll
	}
	return 250 * time.Millisecond
}

// dropClient accounts one SSE client lost mid-write (typically a slow or
// vanished consumer whose connection backed up).
func (s *Server) dropClient(err error) {
	s.runtime().Counter("flight.sse_client_drops").Inc()
	log.Printf("flight: sse client dropped: %v", err)
}

// handleEvents streams flight events as SSE: one "event: flight" message
// per recorded event, data = the deterministic JSONL encoding. The
// stream starts at the oldest retained event (or ?since=SEQ) and polls
// the ring until the client disconnects or the server shuts down. The
// operational registry tracks connected clients (flight.sse_clients) and
// mid-write drops (flight.sse_client_drops).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	clients := s.runtime().Gauge("flight.sse_clients")
	clients.Add(1)
	defer clients.Add(-1)

	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		fmt.Sscanf(v, "%d", &since)
	}
	tick := time.NewTicker(s.poll())
	defer tick.Stop()
	closed := s.closedCh()

	var buf []byte
	for {
		for _, e := range s.Recorder.EventsSince(since) {
			since = e.Seq + 1
			buf = buf[:0]
			buf = append(buf, "event: flight\ndata: "...)
			buf = appendEventJSON(buf, e)
			buf = append(buf, "\n\n"...)
			if _, err := w.Write(buf); err != nil {
				s.dropClient(err)
				return
			}
		}
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-closed:
			return
		case <-tick.C:
		}
	}
}
