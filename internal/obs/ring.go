package obs

import (
	"fmt"
	"time"

	"sharper/internal/types"
)

// Event is one structured protocol-trace entry: what happened (Kind), to
// which instance (Seq and/or Digest), when (wall clock), plus a formatted
// detail string. Divergence dumps and latency tracing share this format.
type Event struct {
	At     int64 // unix microseconds
	Kind   string
	Seq    uint64
	Digest types.Hash
	Note   string
}

// Line renders the event in the trace dump shape: truncated wall-clock
// millis, then kind/seq/digest/detail.
func (e *Event) Line() string {
	d := "-"
	if !e.Digest.IsZero() {
		d = e.Digest.String()
	}
	return fmt.Sprintf("%d %s seq=%d d=%s %s", e.At/1000%100000, e.Kind, e.Seq, d, e.Note)
}

// EventRing is a fixed-capacity circular buffer of Events. Unlike the old
// string ring (`trace = trace[1:]` re-copied 2048 entries on every record),
// recording into a full ring overwrites the oldest slot in O(1). A nil or
// disabled ring records nothing, never formats its arguments and holds no
// buffer: every replica builds two rings whether tracing is on or not, and
// 2,048 empty slots of strings are memory the collector scans for nothing.
type EventRing struct {
	buf   []Event // nil when the ring is disabled
	next  int
	total int
}

// DefaultRingCapacity matches the old string ring's depth.
const DefaultRingCapacity = 2048

// NewEventRing builds a ring holding the last `capacity` events (≤0 picks
// DefaultRingCapacity). A disabled ring costs one branch per Record call and
// allocates nothing beyond itself.
func NewEventRing(capacity int, enabled bool) *EventRing {
	if !enabled {
		return &EventRing{}
	}
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &EventRing{buf: make([]Event, capacity)}
}

// Enabled reports whether the ring records events.
func (r *EventRing) Enabled() bool { return r != nil && len(r.buf) > 0 }

// Record appends an event with a fixed note.
func (r *EventRing) Record(kind string, seq uint64, digest types.Hash, note string) {
	if !r.Enabled() {
		return
	}
	r.buf[r.next] = Event{
		At: time.Now().UnixMicro(), Kind: kind, Seq: seq, Digest: digest, Note: note,
	}
	r.next = (r.next + 1) % len(r.buf)
	r.total++
}

// Recordf appends an event, formatting the note only when the ring is on.
func (r *EventRing) Recordf(kind string, seq uint64, digest types.Hash, format string, args ...any) {
	if !r.Enabled() {
		return
	}
	r.Record(kind, seq, digest, fmt.Sprintf(format, args...))
}

// Events returns the recorded events, oldest first.
func (r *EventRing) Events() []Event {
	if !r.Enabled() {
		return nil
	}
	n := r.total
	if n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]Event, 0, n)
	start := (r.next - n + len(r.buf)) % len(r.buf)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Lines renders the recorded events oldest-first, for DebugTrace and the
// -trace-dir dump path.
func (r *EventRing) Lines() []string {
	evs := r.Events()
	if len(evs) == 0 {
		return nil
	}
	out := make([]string, len(evs))
	for i := range evs {
		out[i] = evs[i].Line()
	}
	return out
}
