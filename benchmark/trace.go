package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval, recorded from the benchmark's own files
// around a call into a layer. Times are nanoseconds since the tracer
// started. Spans of one service job share Attrs["job"].
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"` // 0 = root
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory and writes them once at exit. A nil tracer
// records nothing: the untraced pass runs with a nil tracer, so the
// end-to-end numbers never pay for tracing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id, attaching attrs (may be nil).
func (t *tracer) end(id int, attrs map[string]any) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	s.Attrs = attrs
}

// add records a span whose interval was observed elsewhere (the service
// job's queue and run intervals come from Job.Times).
func (t *tracer) add(parent int, name string, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Attrs: attrs,
	})
	return len(t.spans)
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], iv{lo, hi})
			}
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var cover, curLo, curHi int64
		open := false
		for _, c := range ivs {
			switch {
			case !open:
				curLo, curHi, open = c.lo, c.hi, true
			case c.lo <= curHi:
				curHi = max(curHi, c.hi)
			default:
				cover += curHi - curLo
				curLo, curHi = c.lo, c.hi
			}
		}
		if open {
			cover += curHi - curLo
		}
		out[s.ID] = (s.End - s.Start) - cover
	}
	return out
}

// chromeEvent is one Chrome trace-event ("X" = complete event, µs units).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// chrome://tracing or Perfetto). Each root span and its descendants share
// one track, except that every service job (which overlaps its siblings)
// gets its own; args carry id, parent, self time and the span's attrs.
func writeChrome(path string, spans []span) error {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	track := func(s span) int {
		for {
			p, ok := byID[s.Parent]
			if !ok || s.Name == "job" {
				return s.ID
			}
			s = p
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "self_us": float64(self[s.ID]) / 1e3}
		for k, v := range s.Attrs {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: track(s), Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
