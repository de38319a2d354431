package main

// Outside-in tracing: spans are recorded by decorators the benchmark wraps
// round the program's public seams — the experiment.Sink a campaign streams
// records into, the http.RoundTripper a dist worker talks through, and the
// http.Handler the coordinator serves — never from inside the program.
// Spans stay in memory and are written once, at exit.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/experiment"
)

// span is one timed interval at a layer boundary. Parent is the id of the
// span that caused it (0 = none); Pass and Shard say which campaign pass
// and, for dist spans, which worker/shard it belongs to.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent,omitempty"`
	Pass    int    `json:"pass"`
	Shard   string `json:"shard,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder collects spans from any goroutine.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	pass   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID reserves a span id before the span ends, so children started in
// the meantime (a handler serving the request a client span covers) can
// name their parent.
func (r *recorder) newID() int { return int(r.nextID.Add(1)) }

// add records a finished span under a fresh id and returns the id.
func (r *recorder) add(name string, start, end time.Time, parent int, shard string) int {
	id := r.newID()
	r.addID(id, name, start, end, parent, shard)
	return id
}

func (r *recorder) addID(id int, name string, start, end time.Time, parent int, shard string) {
	s := span{ID: id, Name: name, StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
		Parent: parent, Pass: int(r.pass.Load()), Shard: shard}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// all returns the recorded spans in start order.
func (r *recorder) all() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// named returns the durations, in seconds, of every span called name.
func (r *recorder) named(name string) []float64 {
	var out []float64
	for _, s := range r.all() {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// writeFile dumps the spans as one JSON array.
func (r *recorder) writeFile(path string) error {
	raw, err := json.MarshalIndent(r.all(), "", " ")
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once; parts of a child outside the parent are ignored).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered, reach int64
		reach = s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// tracedSink times every Append and Flush of the sink it wraps. Records
// pass through unchanged.
type tracedSink struct {
	inner  experiment.Sink
	rec    *recorder
	parent int
}

func (s *tracedSink) Append(idx int, rec experiment.Record) error {
	t0 := time.Now()
	err := s.inner.Append(idx, rec)
	s.rec.add("record.append", t0, time.Now(), s.parent, "")
	return err
}

func (s *tracedSink) Flush() error {
	t0 := time.Now()
	err := s.inner.Flush()
	s.rec.add("record.flush", t0, time.Now(), s.parent, "")
	return err
}

// spanHeader carries a client span's id to the coordinator so the handler
// span can name it as its parent.
const spanHeader = "X-Bench-Span"

// tracedTransport times every request one dist worker makes, and brackets
// each granted lease — from the grant to the end of the upload — in a
// "dist.shard" span. Request and response bytes pass through unchanged.
type tracedTransport struct {
	inner  http.RoundTripper
	rec    *recorder
	worker string

	// The worker loop is sequential (lease → run → complete), so one slot
	// holds the lease in flight. Renewals run beside it but never touch it.
	mu      sync.Mutex
	shard   string
	granted time.Time
	shardID int
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeOf(req.URL.Path)
	id := t.rec.newID()
	t.mu.Lock()
	parent, shard := 0, t.worker
	if route != "/lease" && t.shard != "" {
		parent, shard = t.shardID, t.worker+":"+t.shard
	}
	t.mu.Unlock()

	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(id))
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.rec.addID(id, "dist.rtt"+route, t0, time.Now(), parent, shard)
		return nil, err
	}
	// Drain the body inside the span so the round trip covers the whole
	// reply, then hand the caller an identical copy.
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	t.rec.addID(id, "dist.rtt"+route, t0, end, parent, shard)
	if rerr != nil {
		return nil, rerr
	}

	t.mu.Lock()
	switch route {
	case "/lease":
		var lr dist.LeaseResponse
		if json.Unmarshal(body, &lr) == nil && lr.Lease != nil {
			t.shard = fmt.Sprintf("%s[%d,%d)", lr.Lease.Campaign, lr.Lease.Lo, lr.Lease.Hi)
			t.granted = end
			t.shardID = t.rec.newID()
		}
	case "/complete":
		if t.shard != "" {
			t.rec.addID(t.shardID, "dist.shard", t.granted, end, 0, t.worker+":"+t.shard)
			t.shard = ""
		}
	}
	t.mu.Unlock()
	return resp, nil
}

// tracedHandler times every request the coordinator serves.
type tracedHandler struct {
	inner http.Handler
	rec   *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	h.rec.add("dist.handle"+routeOf(r.URL.Path), t0, time.Now(), parent, "")
}

// routeOf collapses a request path to its route: campaign ids are dropped
// so every status poll lands under one name.
func routeOf(path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if parts[0] == "campaigns" && len(parts) >= 2 {
		if len(parts) == 3 {
			return "/campaigns/{id}/" + parts[2]
		}
		return "/campaigns/{id}"
	}
	return "/" + parts[0]
}
