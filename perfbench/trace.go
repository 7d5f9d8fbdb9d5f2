package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// requestIDHeader carries the client span's ID to the server, whose
// middleware records the handler span as that span's child.
const requestIDHeader = "X-Request-Id"

// span is one timed call, as written to the span dump.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes run the same code with tracing off.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id returns a fresh span ID, or 0 on a nil tracer.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span.
func (t *tracer) record(name string, id, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// named returns a copy of the spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// byID indexes every span by its ID.
func (t *tracer) byID() map[uint64]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[uint64]span, len(t.spans))
	for _, s := range t.spans {
		m[s.ID] = s
	}
	return m
}

// durations returns the durations of the named spans in the given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, float64(s.dur())/float64(unit))
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		cur := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// nameSummary aggregates the spans of one name in the dump.
type nameSummary struct {
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// dump writes every span plus a per-name summary of total and self time.
func (t *tracer) dump(path, workload string, seed int64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	summary := map[string]*nameSummary{}
	for _, s := range spans {
		ns := summary[s.Name]
		if ns == nil {
			ns = &nameSummary{}
			summary[s.Name] = ns
		}
		ns.Count++
		ns.TotalNS += int64(s.dur())
		ns.SelfNS += int64(self[s.ID])
	}
	doc := struct {
		Workload string                  `json:"workload"`
		Seed     int64                   `json:"seed"`
		Summary  map[string]*nameSummary `json:"summary"`
		Spans    []span                  `json:"spans"`
	}{workload, seed, summary, spans}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}

// handlerSpans wraps a server handler so that each request it serves is
// recorded as a span named name, on the tracer cur holds when the request
// arrives, so one server can serve traced and untraced passes. The span's
// parent is the client span whose ID arrives in the request-ID header.
func handlerSpans(cur *atomic.Pointer[tracer], name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t := cur.Load()
		if t == nil {
			h.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseUint(req.Header.Get(requestIDHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, req)
		t.record(name, t.id(), parent, start, time.Now())
	})
}

// rttTransport times each round trip from sending the request to the
// client closing the response body. With a tracer it also records a span
// per round trip and sends its ID in the request-ID header.
type rttTransport struct {
	base   http.RoundTripper
	tr     *tracer
	name   string
	parent uint64

	mu  sync.Mutex
	rtt []float64 // milliseconds
}

func (t *rttTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr, parent := t.tr, t.parent
	id := tr.id()
	if tr != nil {
		req = req.Clone(req.Context())
		req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		end := time.Now()
		t.mu.Lock()
		t.rtt = append(t.rtt, float64(end.Sub(start))/float64(time.Millisecond))
		t.mu.Unlock()
		tr.record(t.name, id, parent, start, end)
	}}
	return resp, nil
}

func (t *rttTransport) samples() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.rtt...)
}

// timedBody calls done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
