package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strings"
)

// The ops server is the unified live observability plane the CLIs serve
// behind one -obs-http flag (see Start) and wsnlocd mounts on its API port:
//
//	GET /              endpoint index (text)
//	GET /healthz       liveness probe ("ok")
//	GET /metrics       Prometheus text exposition of the registry
//	GET /metrics.json  JSON exposition of the registry
//	GET /events        live event stream off a Broadcast sink:
//	                   chunked JSONL by default, SSE with ?sse=1 or
//	                   Accept: text/event-stream; ends on client disconnect
//	GET /buildinfo     module path/version, VCS revision, Go version
//	GET /debug/pprof/  the standard pprof endpoints
//
// Everything served is read-only and allocation-light; the event stream is
// decoupled from the solver hot path by the Broadcast's bounded buffers, so
// any number of slow readers cost drops, never latency.

// NewOpsMux returns the ops-plane handler over a metrics registry and an
// optional broadcast sink (nil disables /events with 503).
func NewOpsMux(reg *Registry, bc *Broadcast) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "wsnloc ops plane\n\n"+
			"/healthz       liveness\n"+
			"/metrics       Prometheus exposition\n"+
			"/metrics.json  JSON exposition\n"+
			"/events        live event stream (JSONL; ?sse=1 for SSE)\n"+
			"/buildinfo     build / VCS metadata\n"+
			"/debug/pprof/  profiling\n")
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		refreshOpsMetrics(reg, bc)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		refreshOpsMetrics(reg, bc)
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/events", serveEvents(bc))
	mux.HandleFunc("/buildinfo", serveBuildInfo)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// refreshOpsMetrics pushes the broadcast health gauges into the registry so
// scrapes see current subscriber and drop counts without a sampling loop.
func refreshOpsMetrics(reg *Registry, bc *Broadcast) {
	if bc == nil {
		return
	}
	reg.Gauge("wsnloc_events_subscribers").Set(float64(bc.Subscribers()))
	reg.Gauge("wsnloc_events_emitted").Set(float64(bc.Emitted()))
	reg.Gauge("wsnloc_events_dropped").Set(float64(bc.Dropped()))
}

// serveEvents streams broadcast events until the client disconnects (or the
// broadcast subscription is closed). Each event is one flattened JSON
// object; framing is newline-delimited JSON by default, or SSE "data:"
// frames when requested.
func serveEvents(bc *Broadcast) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if bc == nil {
			http.Error(w, "event streaming disabled (no broadcast sink)", http.StatusServiceUnavailable)
			return
		}
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		sse := r.URL.Query().Get("sse") == "1" ||
			strings.Contains(r.Header.Get("Accept"), "text/event-stream")
		if sse {
			w.Header().Set("Content-Type", "text/event-stream")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)
		fl.Flush()

		sub := bc.Subscribe()
		defer sub.Close()
		ctx := r.Context()
		for {
			select {
			case <-ctx.Done():
				return
			case e, ok := <-sub.Events():
				if !ok {
					return
				}
				data, err := json.Marshal(e)
				if err != nil {
					continue
				}
				if sse {
					if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
						return
					}
				} else {
					if _, err := w.Write(append(data, '\n')); err != nil {
						return
					}
				}
				fl.Flush()
			}
		}
	}
}

// buildInfoJSON is the /buildinfo response shape.
type buildInfoJSON struct {
	GoVersion string `json:"go_version"`
	Path      string `json:"path,omitempty"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"version,omitempty"`
	VCSRev    string `json:"vcs_revision,omitempty"`
	VCSTime   string `json:"vcs_time,omitempty"`
	VCSDirty  bool   `json:"vcs_dirty,omitempty"`
}

// serveBuildInfo reports the embedded module/VCS metadata of the running
// binary via runtime/debug.ReadBuildInfo.
func serveBuildInfo(w http.ResponseWriter, r *http.Request) {
	out := buildInfoJSON{}
	if bi, ok := debug.ReadBuildInfo(); ok {
		out.GoVersion = bi.GoVersion
		out.Path = bi.Path
		out.Module = bi.Main.Path
		out.Version = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				out.VCSRev = s.Value
			case "vcs.time":
				out.VCSTime = s.Value
			case "vcs.modified":
				out.VCSDirty = s.Value == "true"
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}
