package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark's own tracer:
// a layer boundary crossed on behalf of operation Op, caused by span
// Parent (-1 for an operation's root). Times are nanoseconds since the
// tracer started.
type span struct {
	Name   string
	Op     int64
	ID     int32
	Parent int32
	Start  int64
	End    int64
	lane   int32
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced pass pays one nil check per
// boundary.
type tracer struct {
	t0     time.Time
	paused atomic.Bool // set around untimed warm-up work
	mu     sync.Mutex
	spans  []span
	lanes  [][]int32 // per display lane, the stack of open span ids
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int32) int32 {
	if t == nil || t.paused.Load() {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	// A child opened while its parent is the innermost open span of
	// the parent's lane nests there; anything else (a sibling running
	// concurrently, a root) takes the first idle lane.
	lane := int32(-1)
	if parent >= 0 {
		pl := t.spans[parent].lane
		if st := t.lanes[pl]; len(st) > 0 && st[len(st)-1] == parent {
			lane = pl
		}
	}
	if lane < 0 {
		for i, st := range t.lanes {
			if len(st) == 0 {
				lane = int32(i)
				break
			}
		}
		if lane < 0 {
			lane = int32(len(t.lanes))
			t.lanes = append(t.lanes, nil)
		}
	}
	t.lanes[lane] = append(t.lanes[lane], id)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: now, End: -1, lane: lane})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	st := t.lanes[t.spans[id].lane]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == id {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	t.lanes[t.spans[id].lane] = st
	t.mu.Unlock()
}

// pause stops (or resumes) recording; spans begun while paused are
// dropped.
func (t *tracer) pause(on bool) {
	if t != nil {
		t.paused.Store(on)
	}
}

// closed returns the finished spans.
func (t *tracer) closed() []span {
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

// selfTimes attributes every instant covered by an operation's spans
// to the innermost spans active at that instant — a span's self time
// is its duration minus the part its children cover. When several
// innermost spans are active at once (parallel scan workers), the
// instant is split evenly between them, so the self times of one
// operation sum to exactly the wall time its spans cover. Spans of
// different operations never shadow each other. The result maps span
// name to nanoseconds.
func selfTimes(spans []span) map[string]float64 {
	byOp := map[int64][]span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	out := map[string]float64{}
	type event struct {
		at   int64
		open bool
		idx  int
	}
	for _, group := range byOp {
		index := make(map[int32]int, len(group))
		for i, s := range group {
			index[s.ID] = i
		}
		events := make([]event, 0, 2*len(group))
		for i, s := range group {
			events = append(events, event{s.Start, true, i}, event{s.End, false, i})
		}
		// Closes sort before opens at the same instant so a zero-length
		// gap between siblings is not counted as overlap.
		sort.Slice(events, func(a, b int) bool {
			if events[a].at != events[b].at {
				return events[a].at < events[b].at
			}
			return !events[a].open && events[b].open
		})
		active := map[int]bool{}
		kids := make([]int, len(group)) // active children per span
		last := int64(0)
		for _, ev := range events {
			if dt := ev.at - last; dt > 0 && len(active) > 0 {
				leaves := 0
				for i := range active {
					if kids[i] == 0 {
						leaves++
					}
				}
				for i := range active {
					if kids[i] == 0 {
						out[group[i].Name] += float64(dt) / float64(leaves)
					}
				}
			}
			last = ev.at
			pi, hasParent := index[group[ev.idx].Parent]
			if ev.open {
				active[ev.idx] = true
				if hasParent {
					kids[pi]++
				}
			} else {
				delete(active, ev.idx)
				if hasParent {
					kids[pi]--
				}
			}
		}
	}
	return out
}

// writeChromeTrace writes spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): complete events, microsecond times.
func writeChromeTrace(path string, spans []span) error {
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]ev, len(spans))
	for i, s := range spans {
		evs[i] = ev{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]any{"op_id": s.Op, "id": s.ID, "parent": s.Parent},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerOf returns the module a span or metric name belongs to: the
// part before the first dot.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// opRef tells the store and relation wrappers which operation and
// span the engine is currently working for. The harness sets it
// before each single-client operation; phases with concurrent clients
// leave it at (0, -1) because the engine does not say which request a
// store read belongs to.
type opRef struct {
	op     atomic.Int64
	parent atomic.Int32
}

func newOpRef() *opRef {
	r := &opRef{}
	r.parent.Store(-1)
	return r
}

func (r *opRef) set(op int64, parent int32) {
	r.op.Store(op)
	r.parent.Store(parent)
}
