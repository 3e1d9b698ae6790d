package obs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestStartComposesFlags pins what each flag adds: no flags is the no-op
// tracer with no registry, while -trace, -metrics and -v each receive the
// one event stream.
func TestStartComposesFlags(t *testing.T) {
	s, err := Start(Flags{})
	if err != nil {
		t.Fatal(err)
	}
	if Enabled(s.Tracer) || s.Registry != nil || s.Broadcast != nil {
		t.Errorf("no flags: tracer enabled %v, registry %v, broadcast %v",
			Enabled(s.Tracer), s.Registry, s.Broadcast)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var log bytes.Buffer
	s, err = Start(Flags{Trace: path, Verbose: true, Metrics: true, Stderr: &log})
	if err != nil {
		t.Fatal(err)
	}
	if s.Broadcast != nil {
		t.Error("-metrics alone built a live plane")
	}
	Emit(s.Tracer, "trial.done", map[string]interface{}{"dur_ms": 1.0})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"event":"trial.done"`)) {
		t.Errorf("trace file = %q, want the trial.done event", data)
	}
	if !strings.Contains(log.String(), "trial.done") {
		t.Errorf("log = %q, want the trial.done event", log.String())
	}
	if got := s.Registry.Counter("wsnloc_trials_total").Value(); got != 1 {
		t.Errorf("wsnloc_trials_total = %v, want 1", got)
	}
}

// TestCloseFailsOnLostTrace pins the error every command turns into exit 1:
// a trace that lost an event fails Close with the write error, prefixed so
// the command's message names the trace.
func TestCloseFailsOnLostTrace(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	s, err := Start(Flags{Trace: "/dev/full"})
	if err != nil {
		t.Fatal(err)
	}
	Emit(s.Tracer, "lost", nil)
	err = s.Close()
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Close = %v, want ENOSPC", err)
	}
	if !strings.HasPrefix(err.Error(), "trace: ") {
		t.Errorf("Close = %q, want a trace: prefix", err)
	}
}
