package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one interval at a layer boundary. Parent is an index into the
// same slice (-1 for an operation's root); spans of one compile pass,
// program execution or request share Op.
type span struct {
	Name    string
	StartNs int64
	EndNs   int64
	Parent  int
	Op      int
	Tid     int // recorder that made it; set by mergeTracers
}

// tracer keeps spans in memory until the run ends. It is not locked: each
// goroutine that records owns one, and mergeTracers joins them afterwards.
// A nil tracer records nothing, which is how the untraced run stays clean.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index, -1 on a nil tracer.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNs: t.now(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].EndNs = t.now()
	}
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, startNs, endNs int64, parent, op int) {
	if t != nil {
		t.spans = append(t.spans, span{Name: name, StartNs: startNs, EndNs: endNs, Parent: parent, Op: op})
	}
}

// mergeTracers concatenates per-goroutine tracers, re-basing parent links.
func mergeTracers(ts ...*tracer) []span {
	var all []span
	for ti, t := range ts {
		if t == nil {
			continue
		}
		base := len(all)
		for _, s := range t.spans {
			s.Tid = ti + 1
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// layerStat is one row of the layer budget.
type layerStat struct {
	Name   string
	Count  int
	BusyNs int64 // sum of span durations
	SelfNs int64 // busy minus the time direct child spans cover
}

// layerTable folds spans into one row per name. A span's self time is its
// duration minus its direct children's durations (children of one parent do
// not overlap here: every recorder is sequential).
func layerTable(spans []span) []layerStat {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	byName := map[string]*layerStat{}
	for i, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.EndNs - s.StartNs
		st.Count++
		st.BusyNs += d
		st.SelfNs += d - child[i]
	}
	rows := make([]layerStat, 0, len(byName))
	for _, st := range byName {
		rows = append(rows, *st)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// selfOf returns the self time of the named layer, 0 when absent.
func selfOf(rows []layerStat, name string) int64 {
	for _, r := range rows {
		if r.Name == name {
			return r.SelfNs
		}
	}
	return 0
}

// maxTraceEvents bounds the trace file: serve.sessions closes ~70k request
// spans a second, and a viewer needs the shape of a request, not all of them.
const maxTraceEvents = 20000

// writeChromeTrace writes the first maxTraceEvents spans as Chrome
// trace_event "complete" events (load in chrome://tracing or Perfetto).
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	n := min(len(spans), maxTraceEvents)
	events := make([]event, 0, n)
	for i, s := range spans[:n] {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: 1, Tid: s.Tid,
			Args: map[string]int{"span": i, "parent": s.Parent, "op_id": s.Op},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
