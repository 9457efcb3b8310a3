package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// QueryTrace is one completed query's timeline, retained in the trace
// ring for post-hoc inspection (/debug/trace): the query runs from
// Start for Wall; its plan search (multi-table queries only, 0
// otherwise) starts with it and takes Plan; its execution starts
// ExecOffset after Start and takes Exec.
type QueryTrace struct {
	ID         uint64
	Digest     string
	Start      time.Time
	Wall       time.Duration
	Plan       time.Duration
	Exec       time.Duration
	ExecOffset time.Duration
}

// TraceRing is a fixed-capacity ring buffer of recent query traces.
type TraceRing struct {
	mu   sync.Mutex
	buf  []QueryTrace
	next int
	n    int
}

// NewTraceRing returns a ring retaining the last capacity traces.
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]QueryTrace, capacity)}
}

// Traces is the process-wide ring of recent query traces.
var Traces = NewTraceRing(128)

// Add records a completed trace, evicting the oldest when full.
func (t *TraceRing) Add(qt QueryTrace) {
	t.mu.Lock()
	t.buf[t.next] = qt
	t.next = (t.next + 1) % len(t.buf)
	if t.n < len(t.buf) {
		t.n++
	}
	t.mu.Unlock()
}

// Last returns up to n most recent traces, oldest first (n <= 0 means
// everything retained).
func (t *TraceRing) Last(n int) []QueryTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.n {
		n = t.n
	}
	out := make([]QueryTrace, 0, n)
	start := t.next - n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// WriteChromeTrace exports the traces as Chrome trace-event JSON (the
// format chrome://tracing and Perfetto load): per query one complete
// ("X") event named "query <digest>", then "plan" when the query
// planned, then "execute", with the query id as the thread id and
// timestamps in microseconds since the Unix epoch.
func WriteChromeTrace(w io.Writer, traces []QueryTrace) error {
	_, err := io.WriteString(w, "{\"traceEvents\":[")
	sep := ""
	event := func(qt QueryTrace, name string, offset, dur time.Duration) {
		if err == nil {
			_, err = fmt.Fprintf(w, `%s{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d,"args":{"query_id":%d}}`,
				sep, name, qt.ID, qt.Start.Add(offset).UnixMicro(), dur.Microseconds(), qt.ID)
			sep = ","
		}
	}
	for _, qt := range traces {
		event(qt, "query "+qt.Digest, 0, qt.Wall)
		if qt.Plan > 0 {
			event(qt, "plan", 0, qt.Plan)
		}
		event(qt, "execute", qt.ExecOffset, qt.Exec)
	}
	if err == nil {
		_, err = io.WriteString(w, "]}\n")
	}
	return err
}
