package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Spans give the flat event stream a hierarchy: StartSpan emits a
// "<name>.start" event carrying a fresh span ID (and the parent's ID when the
// tracer is span-scoped), and End emits the matching "<name>.done" event with
// the span's wall-clock duration. Every event emitted through a span's
// Tracer is tagged with the span's ID as "parent_id", so one JSONL stream (or
// one /events subscriber) can reconstruct the full sweep → cell → trial →
// run → round tree without any out-of-band state.
//
// The zero-cost rule of the package holds: StartSpan on a nil or no-op
// tracer returns a nil *Span, and every Span method is nil-safe, so call
// sites need no tracing guards of their own.

// spanSeq is the process-wide span ID source. IDs only need to be unique
// within one trace stream; a monotonic counter keeps them short, readable,
// and deterministic in tests.
var spanSeq atomic.Uint64

// nextSpanID returns a fresh short hex span ID.
func nextSpanID() string { return fmt.Sprintf("%08x", spanSeq.Add(1)) }

// Span is one in-flight traced operation. Create with StartSpan, finish with
// End / EndWith / EndAs (exactly one of them; later calls are no-ops). Safe
// for concurrent use, though typical spans live on one goroutine.
type Span struct {
	sink   Tracer // where events go (the tracer passed to StartSpan)
	name   string
	id     string
	parent string
	start  time.Time

	mu     sync.Mutex
	fields map[string]interface{} // start fields, replayed into the end event
	ended  bool
}

// StartSpan opens a span named name and emits its "<name>.start" event with
// the given fields plus "span_id" (and "parent_id" when tr is a span-scoped
// tracer obtained from an enclosing Span.Tracer). fields is
// owned by the span after the call. A nil or no-op tracer returns nil, which
// every Span method tolerates.
func StartSpan(tr Tracer, name string, fields map[string]interface{}) *Span {
	if !Enabled(tr) {
		return nil
	}
	sp := &Span{
		sink:   tr,
		name:   name,
		id:     nextSpanID(),
		start:  time.Now(),
		fields: fields,
	}
	if st, ok := tr.(*spanTracer); ok {
		sp.parent = st.span.id
	}
	ev := make(map[string]interface{}, len(fields)+2)
	for k, v := range fields {
		ev[k] = v
	}
	sp.stamp(ev)
	tr.Emit(Event{Time: sp.start, Name: name + ".start", Fields: ev})
	return sp
}

// stamp adds the span identity fields to an event payload.
func (s *Span) stamp(ev map[string]interface{}) {
	ev["span_id"] = s.id
	if s.parent != "" {
		ev["parent_id"] = s.parent
	}
}

// ID returns the span's ID ("" on a nil span).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Set annotates the span: the key/value is added to the end event. It is a
// no-op after End.
func (s *Span) Set(key string, value interface{}) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.fields == nil {
		s.fields = make(map[string]interface{}, 1)
	}
	s.fields[key] = value
}

// End finishes the span, emitting "<name>.done" with the start fields, any
// Set annotations, the span/parent IDs, and "dur_ms". Only the first of
// End / EndWith / EndAs has any effect.
func (s *Span) End() { s.EndAs("done", nil) }

// EndWith is End with extra fields merged into the end event (extra wins
// over same-named start fields).
func (s *Span) EndWith(extra map[string]interface{}) { s.EndAs("done", extra) }

// EndAs finishes the span under an alternative outcome suffix — e.g.
// EndAs("canceled", ...) emits "<name>.canceled" — so one span can resolve
// into distinct terminal events while keeping the start/end pairing.
func (s *Span) EndAs(outcome string, extra map[string]interface{}) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	fields := s.fields
	s.fields = nil
	s.mu.Unlock()

	now := time.Now()
	ev := make(map[string]interface{}, len(fields)+len(extra)+3)
	for k, v := range fields {
		ev[k] = v
	}
	for k, v := range extra {
		ev[k] = v
	}
	s.stamp(ev)
	ev["dur_ms"] = float64(now.Sub(s.start).Nanoseconds()) / 1e6
	s.sink.Emit(Event{Time: now, Name: s.name + "." + outcome, Fields: ev})
}

// Tracer returns a tracer that forwards to the span's sink, tagging every
// event that does not already carry span identity with this span's ID as
// "parent_id". Child spans started on the returned tracer inherit this span
// as their parent. A nil span returns the no-op tracer.
func (s *Span) Tracer() Tracer {
	if s == nil {
		return Nop()
	}
	return &spanTracer{span: s}
}

// spanTracer is a Tracer bound to an enclosing span.
type spanTracer struct{ span *Span }

// Enabled implements Tracer.
func (t *spanTracer) Enabled() bool { return Enabled(t.span.sink) }

// Emit implements Tracer: plain events gain "parent_id"; events that already
// carry span identity (span starts/ends, pre-tagged payloads) pass through.
func (t *spanTracer) Emit(e Event) {
	if e.Fields == nil {
		e.Fields = make(map[string]interface{}, 1)
	}
	if _, ok := e.Fields["span_id"]; !ok {
		if _, ok := e.Fields["parent_id"]; !ok {
			e.Fields["parent_id"] = t.span.id
		}
	}
	t.span.sink.Emit(e)
}
