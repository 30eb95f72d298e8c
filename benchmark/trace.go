package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxTracedRequests bounds the trace's memory and file size: the recorder
// keeps the spans of the first this-many requests of the traced phases and
// counts the rest.
const maxTracedRequests = 20000

// span is one timed interval. Spans of one request share Trace (its TxID
// sequence number); Parent names the span that caused this one.
type span struct {
	Name    string         `json:"name"`
	Trace   uint64         `json:"trace,omitempty"`
	Parent  string         `json:"parent,omitempty"`
	StartUs float64        `json:"start_us"` // since the recorder's epoch
	EndUs   float64        `json:"end_us"`
	Attr    map[string]any `json:"attr,omitempty"`
}

// counterSample is one 1 Hz reading of the run counters during a traced run.
type counterSample struct {
	AtUs   float64            `json:"at_us"`
	Values map[string]float64 `json:"values"`
}

// recorder keeps spans and counter samples in memory and writes them out when
// the benchmark ends. The driver calls it under its own mutex; probes and the
// counter sampler call it from their own goroutines.
type recorder struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	samples  []counterSample
	requests int
	dropped  int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) us(t time.Time) float64 {
	return float64(t.Sub(r.epoch)) / float64(time.Microsecond)
}

// request records a finished request: the request span, due → quorum (or
// abandonment), and its children send (due → sent: how late the generator
// was), first_reply (sent → first verdict) and quorum_wait (first verdict →
// quorum).
func (r *recorder) request(req *request, o outcome, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.requests >= maxTracedRequests {
		r.dropped++
		return
	}
	r.requests++
	id := req.id.Seq
	r.spans = append(r.spans,
		span{Name: "request", Trace: id, StartUs: r.us(req.due), EndUs: r.us(now), Attr: map[string]any{
			"phase": req.phase.name, "outcome": int(o), "cross": len(req.involved) > 1, "target": int(req.target),
		}},
		span{Name: "send", Trace: id, Parent: "request", StartUs: r.us(req.due), EndUs: r.us(req.sent)},
	)
	if !req.firstReply.IsZero() {
		r.spans = append(r.spans,
			span{Name: "first_reply", Trace: id, Parent: "request", StartUs: r.us(req.sent), EndUs: r.us(req.firstReply)},
			span{Name: "quorum_wait", Trace: id, Parent: "request", StartUs: r.us(req.firstReply), EndUs: r.us(now)},
		)
	}
}

// retransmit records one retransmission as an instant child of its request.
func (r *recorder) retransmit(req *request, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.requests >= maxTracedRequests {
		return
	}
	at := r.us(now)
	r.spans = append(r.spans, span{Name: "retransmit", Trace: req.id.Seq, Parent: "request", StartUs: at, EndUs: at})
}

// probe records one timed batch of calls into a layer.
func (r *recorder) probe(name string, start, end time.Time, calls int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: "probe:" + name, StartUs: r.us(start), EndUs: r.us(end), Attr: map[string]any{"calls": calls}})
}

func (r *recorder) sample(now time.Time, values map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, counterSample{AtUs: r.us(now), Values: values})
}

// write stores the trace as benchmark/out/<workload>.trace.json.
func (r *recorder) write(dir, workload string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload        string          `json:"workload"`
		Epoch           string          `json:"epoch"`
		RequestsTraced  int             `json:"requests_traced"`
		RequestsDropped int             `json:"requests_not_kept"`
		Counters        []counterSample `json:"counters_1hz"`
		Spans           []span          `json:"spans"`
	}{workload, r.epoch.Format(time.RFC3339Nano), r.requests, r.dropped, r.samples, r.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
