// Package obs is the zero-dependency observability layer of the repository:
// structured trace events with span-scoped hierarchy (span.go), a lightweight
// metrics registry with Prometheus-text and JSON exposition (registry.go), a
// bounded broadcast sink plus runtime sampler and HTTP ops server for live
// observation (broadcast.go, runtime.go, server.go), CPU/heap profiling
// helpers (pprof.go), and Start (start.go), which builds all of it from a
// command's flags.
//
// The design rule is that observability must cost nothing when unused: the
// default tracer is a no-op whose Enabled check is a single virtual call,
// instrumented hot paths gate all event construction behind it, and StartSpan
// on a disabled tracer returns a nil-safe no-op span. Sinks that do record
// (JSONL, Memory, Log, Broadcast) are safe for concurrent use, so one tracer
// can be shared across parallel Monte-Carlo trial workers.
//
// Event schema: every event is one flat JSON object with the reserved keys
// "t" (RFC3339Nano wall time) and "event" (the event name); all remaining
// keys are event-specific fields. Long-running operations are spans: a
// "<name>.start" event opens the span and a "<name>.done" event (or
// "<name>.canceled" / "<name>.error" on abnormal exit) closes it with the
// start fields replayed plus "dur_ms". Span events carry "span_id" (and
// "parent_id" under an enclosing span); plain events emitted inside a span
// carry the span's ID as "parent_id", so one stream reconstructs the full
// sweep → cell → trial → run tree. The events the pipeline emits today:
//
//	bncl.round        one BNCL belief-propagation round: round, residual_mean,
//	                  residual_max, nodes, done, msgs, bytes, dur_ms, and
//	                  ess_mean (particle mode). Emitted live as rounds finish.
//	bncl.phase        one protocol phase: phase (hopflood|bp|refine), rounds,
//	                  msgs, bytes, dur_ms.
//	bncl.run.*        span of one full BNCL solve. start: alg, nodes, workers.
//	                  done: + rounds, msgs, bytes, dur_ms. canceled/error:
//	                  + rounds, err.
//	algorithm         one Localize call of any (wrapped) algorithm: alg,
//	                  dur_ms, rounds, msgs, bytes, ok.
//	baseline.phase    one phase of an instrumented baseline: alg, phase, dur_ms.
//	trial.*           span of one Monte-Carlo trial. start: trial, alg.
//	                  done: + mean_err, localized, unknowns, msgs, bytes,
//	                  rounds, dur_ms. error: + err.
//	sweep.*           span of one sweep. start: name, cells, workers, resume,
//	                  engine_version. done: + executed, cached, dur_ms.
//	                  canceled/error on abnormal exit.
//	sweep.cell.*      span of one grid cell. start: cell, alg, key, trials.
//	                  done: + cached, mean_err, rmse, coverage, msgs, bytes,
//	                  dur_ms. error: + err.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// Event is one structured trace record.
type Event struct {
	// Time is the wall-clock emission time.
	Time time.Time
	// Name identifies the event kind (see the package schema).
	Name string
	// Fields carries the event payload. Values should be JSON-encodable
	// scalars (numbers, strings, bools).
	Fields map[string]interface{}
}

// MarshalJSON flattens the event into one object: {"t":..., "event":..., f...}.
// The reserved keys win over same-named fields. Non-finite floats (which
// encoding/json rejects) are stringified so one odd value cannot poison a
// trace stream.
func (e Event) MarshalJSON() ([]byte, error) {
	flat := make(map[string]interface{}, len(e.Fields)+2)
	for k, v := range e.Fields {
		if f, ok := v.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
			flat[k] = fmt.Sprint(f)
			continue
		}
		flat[k] = v
	}
	flat["t"] = e.Time.Format(time.RFC3339Nano)
	flat["event"] = e.Name
	return json.Marshal(flat)
}

// Float returns the named field as a float64 (handling the numeric types the
// pipeline emits), or ok=false when absent or non-numeric.
func (e Event) Float(key string) (float64, bool) {
	switch v := e.Fields[key].(type) {
	case float64:
		return v, true
	case float32:
		return float64(v), true
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	default:
		return 0, false
	}
}

// Tracer consumes trace events. Implementations must be safe for concurrent
// Emit calls; Enabled lets hot paths skip event construction entirely.
type Tracer interface {
	// Enabled reports whether Emit does anything. Instrumented code must
	// check it before building an Event.
	Enabled() bool
	// Emit records one event.
	Emit(e Event)
}

// nop is the default tracer: never enabled, never records.
type nop struct{}

func (nop) Enabled() bool { return false }
func (nop) Emit(Event)    {}

// Nop returns the no-op tracer.
func Nop() Tracer { return nop{} }

// Enabled reports whether tr is a non-nil tracer that records. It is the
// nil-tolerant gate instrumented code calls on its hot path.
func Enabled(tr Tracer) bool { return tr != nil && tr.Enabled() }

// Emit timestamps and emits one event if the tracer records. fields is owned
// by the tracer after the call.
func Emit(tr Tracer, name string, fields map[string]interface{}) {
	if !Enabled(tr) {
		return
	}
	tr.Emit(Event{Time: time.Now(), Name: name, Fields: fields})
}

// sortedFieldKeys returns the field names in deterministic order (for the
// human-readable Log sink).
func sortedFieldKeys(fields map[string]interface{}) []string {
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
