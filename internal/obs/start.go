package obs

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"
)

// Flags is the observability a command's flags ask for. Every command
// builds its sinks, registry and ops server from one Flags through Start,
// so each of them composes the trace stream the same way.
type Flags struct {
	// Trace is the JSONL trace file (-trace); empty writes none.
	Trace string
	// Verbose adds the human-readable Log sink on Stderr (-v).
	Verbose bool
	// Metrics feeds a Registry from the event stream through MetricsSink
	// (-metrics, -metrics-prom).
	Metrics bool
	// HTTP serves the ops plane (NewOpsMux) on this address (-obs-http;
	// port 0 picks a free port) and implies Live.
	HTTP string
	// Live builds the live plane — a Broadcast for /events and a runtime
	// sampler — without serving it: wsnlocd mounts NewOpsMux on its own
	// API port. It implies Metrics.
	Live bool
	// Stderr receives the Log sink's lines and the "obs: serving" line.
	Stderr io.Writer
}

// Sinks is one command's observability, built by Start and released by
// Close.
type Sinks struct {
	// Tracer fans events out to every sink the flags asked for (Nop when
	// none).
	Tracer Tracer
	// Registry is fed by the event stream; nil unless Metrics or Live.
	Registry *Registry
	// Broadcast feeds /events; nil unless Live.
	Broadcast *Broadcast

	addr    string // the ops server's bound host:port
	trace   *os.File
	jsonl   *JSONL
	sampler *RuntimeSampler
	srv     *http.Server
}

// Start composes the sinks f asks for into one tracer — JSONL trace,
// MetricsSink, Broadcast, Log, in that order — starts the runtime sampler
// for a live plane, and serves the ops plane when f.HTTP is set, announcing
// its address on f.Stderr.
func Start(f Flags) (*Sinks, error) {
	s := &Sinks{}
	var tracers []Tracer
	if f.Trace != "" {
		file, err := os.Create(f.Trace)
		if err != nil {
			return nil, err
		}
		s.trace, s.jsonl = file, NewJSONL(file)
		tracers = append(tracers, s.jsonl)
	}
	live := f.Live || f.HTTP != ""
	if f.Metrics || live {
		s.Registry = NewRegistry()
		tracers = append(tracers, NewMetricsSink(s.Registry))
	}
	if live {
		s.Broadcast = NewBroadcast(DefaultBroadcastDepth)
		tracers = append(tracers, s.Broadcast)
		s.sampler = StartRuntimeSampler(s.Registry, 0)
	}
	if f.Verbose {
		tracers = append(tracers, NewLog(f.Stderr))
	}
	s.Tracer = Multi(tracers...)
	if f.HTTP != "" {
		ln, err := net.Listen("tcp", f.HTTP)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("obs: ops server: %w", err)
		}
		s.srv = &http.Server{Handler: NewOpsMux(s.Registry, s.Broadcast)}
		go s.srv.Serve(ln)
		s.addr = ln.Addr().String()
		fmt.Fprintf(f.Stderr, "obs: serving http://%s/ (metrics, events, pprof)\n", s.addr)
	}
	return s, nil
}

// Close releases what Start acquired. Open /events streams end with a
// clean EOF (their subscriptions close first), and the ops server gets 2 s
// to drain before the remaining connections are cut, so a stuck peer cannot
// hold the process. The runtime sampler stops after a final sample. Close
// fails when the trace lost events or its file did not close: a trace with
// holes is worse than none.
func (s *Sinks) Close() error {
	if s.Broadcast != nil {
		s.Broadcast.CloseSubscribers()
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if s.srv.Shutdown(ctx) != nil {
			s.srv.Close() // only the stuck peer loses; the run's outcome stands
		}
		cancel()
	}
	if s.sampler != nil {
		s.sampler.Stop()
	}
	if s.trace == nil {
		return nil
	}
	err := s.jsonl.Err()
	if cerr := s.trace.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
