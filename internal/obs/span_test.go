package obs

import (
	"testing"
)

func TestStartSpanEmitsStartAndDone(t *testing.T) {
	mem := NewMemory()
	sp := StartSpan(mem, "op", map[string]interface{}{"k": 1})
	if sp == nil {
		t.Fatal("StartSpan on enabled tracer returned nil")
	}
	sp.Set("extra", "v")
	sp.EndWith(map[string]interface{}{"n": 2})

	starts := mem.ByName("op.start")
	if len(starts) != 1 {
		t.Fatalf("got %d op.start events, want 1", len(starts))
	}
	if starts[0].Fields["k"] != 1 {
		t.Errorf("start missing field k: %v", starts[0].Fields)
	}
	id, _ := starts[0].Fields["span_id"].(string)
	if id == "" {
		t.Fatal("start missing span_id")
	}
	if id != sp.ID() {
		t.Errorf("start span_id %q != Span.ID() %q", id, sp.ID())
	}

	dones := mem.ByName("op.done")
	if len(dones) != 1 {
		t.Fatalf("got %d op.done events, want 1", len(dones))
	}
	d := dones[0]
	if d.Fields["span_id"] != id {
		t.Errorf("done span_id %v != start %q", d.Fields["span_id"], id)
	}
	// Start fields, Set annotations, and EndWith extras all merge in.
	if d.Fields["k"] != 1 || d.Fields["extra"] != "v" || d.Fields["n"] != 2 {
		t.Errorf("done fields incomplete: %v", d.Fields)
	}
	if v, ok := d.Float("dur_ms"); !ok || v < 0 {
		t.Errorf("done dur_ms = %v %v, want >= 0", v, ok)
	}
	// A root span has no parent.
	if _, ok := d.Fields["parent_id"]; ok {
		t.Errorf("root span carries parent_id: %v", d.Fields)
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	mem := NewMemory()
	sp := StartSpan(mem, "op", nil)
	sp.End()
	sp.End()
	sp.EndAs("canceled", nil)
	if got := len(mem.ByName("op.done")); got != 1 {
		t.Errorf("got %d op.done events, want 1", got)
	}
	if got := len(mem.ByName("op.canceled")); got != 0 {
		t.Errorf("EndAs after End emitted %d events, want 0", got)
	}
}

func TestSpanEndAsOutcome(t *testing.T) {
	mem := NewMemory()
	sp := StartSpan(mem, "op", nil)
	sp.EndAs("canceled", map[string]interface{}{"err": "ctx"})
	evs := mem.ByName("op.canceled")
	if len(evs) != 1 {
		t.Fatalf("got %d op.canceled events, want 1", len(evs))
	}
	if evs[0].Fields["err"] != "ctx" {
		t.Errorf("canceled event fields: %v", evs[0].Fields)
	}
	if _, ok := evs[0].Float("dur_ms"); !ok {
		t.Error("canceled event missing dur_ms")
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var sp *Span
	if got := StartSpan(nil, "op", nil); got != nil {
		t.Errorf("StartSpan(nil tracer) = %v, want nil", got)
	}
	if got := StartSpan(Nop(), "op", nil); got != nil {
		t.Errorf("StartSpan(Nop) = %v, want nil", got)
	}
	// Every method on a nil span must be a no-op, not a panic.
	sp.Set("k", 1)
	sp.End()
	sp.EndWith(nil)
	sp.EndAs("canceled", nil)
	if sp.ID() != "" {
		t.Errorf("nil span ID = %q, want empty", sp.ID())
	}
	if tr := sp.Tracer(); Enabled(tr) {
		t.Error("nil span Tracer() is enabled, want no-op")
	}
}

func TestSpanTracerParentsPlainEvents(t *testing.T) {
	mem := NewMemory()
	parent := StartSpan(mem, "parent", nil)
	tr := parent.Tracer()

	tr.Emit(Event{Name: "plain", Fields: map[string]interface{}{"x": 1}})
	evs := mem.ByName("plain")
	if len(evs) != 1 {
		t.Fatalf("got %d plain events, want 1", len(evs))
	}
	if evs[0].Fields["parent_id"] != parent.ID() {
		t.Errorf("plain event parent_id = %v, want %q", evs[0].Fields["parent_id"], parent.ID())
	}

	// Pre-tagged events pass through untouched.
	tr.Emit(Event{Name: "tagged", Fields: map[string]interface{}{"span_id": "zz"}})
	if _, ok := mem.ByName("tagged")[0].Fields["parent_id"]; ok {
		t.Error("event with span_id gained a parent_id")
	}
}

func TestChildSpansInheritParent(t *testing.T) {
	mem := NewMemory()
	parent := StartSpan(mem, "parent", nil)
	child := StartSpan(parent.Tracer(), "child", nil)
	child.End()
	parent.End()

	cs := mem.ByName("child.start")
	if len(cs) != 1 {
		t.Fatalf("got %d child.start events, want 1", len(cs))
	}
	if cs[0].Fields["parent_id"] != parent.ID() {
		t.Errorf("child.start parent_id = %v, want %q", cs[0].Fields["parent_id"], parent.ID())
	}
	cd := mem.ByName("child.done")
	if cd[0].Fields["parent_id"] != parent.ID() {
		t.Errorf("child.done parent_id = %v, want %q", cd[0].Fields["parent_id"], parent.ID())
	}
	if cd[0].Fields["span_id"] == parent.ID() {
		t.Error("child span_id equals parent span_id")
	}
}

func TestSpanIDsUnique(t *testing.T) {
	mem := NewMemory()
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		sp := StartSpan(mem, "op", nil)
		if seen[sp.ID()] {
			t.Fatalf("duplicate span ID %q", sp.ID())
		}
		seen[sp.ID()] = true
		sp.End()
	}
}
