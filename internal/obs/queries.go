package obs

import (
	"sync"
	"time"
)

// QueryHandle is one in-flight query in the live-query registry:
// identity, start time, plan digest, and live progress read straight
// from the scans' ScanStats — no extra hot-path writes beyond what
// EXPLAIN ANALYZE accounting already pays.
type QueryHandle struct {
	// ID is the process-unique query id (monotonic).
	ID uint64
	// Start is when execution began.
	Start time.Time
	// Digest identifies the plan shape (a short hash over the operator
	// tree; identical queries share a digest).
	Digest string
	// Tables names the scanned relations.
	Tables []string

	reg   *QueryRegistry
	scans []*ScanStats
	done  bool
}

// Progress sums the handle's scan counters: rows and tiles scanned so
// far, tiles skipped, and stored bytes read from the store.
func (h *QueryHandle) Progress() (rows, tilesScanned, tilesSkipped, bytes int64) {
	if h == nil {
		return
	}
	for _, st := range h.scans {
		c := st.Counts()
		rows += c.RowsScanned
		tilesScanned += c.TilesScanned
		tilesSkipped += c.TilesSkipped
		bytes += c.StoreBytesRead
	}
	return
}

// Finish deregisters the query. Idempotent; safe on nil.
func (h *QueryHandle) Finish() {
	if h == nil || h.reg == nil {
		return
	}
	h.reg.mu.Lock()
	if !h.done {
		h.done = true
		delete(h.reg.live, h.ID)
	}
	h.reg.mu.Unlock()
	QueriesActive.Set(float64(h.reg.NumLive()))
}

// QueryRegistry is a process-wide table of in-flight queries. Every
// Run/RunAnalyzed registers on start and deregisters on completion;
// the diagnostics server lists the table as /debug/queries.
type QueryRegistry struct {
	mu     sync.Mutex
	nextID uint64
	live   map[uint64]*QueryHandle
}

// NewQueryRegistry returns an empty registry.
func NewQueryRegistry() *QueryRegistry {
	return &QueryRegistry{live: map[uint64]*QueryHandle{}}
}

// Queries is the process-wide live-query registry.
var Queries = NewQueryRegistry()

// Begin registers a query and returns its handle. scans are the
// per-scan statistics the execution fills; progress is read from them
// live.
func (r *QueryRegistry) Begin(digest string, tables []string, scans []*ScanStats) *QueryHandle {
	r.mu.Lock()
	r.nextID++
	h := &QueryHandle{
		ID:     r.nextID,
		Start:  time.Now(),
		Digest: digest,
		Tables: tables,
		reg:    r,
		scans:  scans,
	}
	r.live[h.ID] = h
	n := len(r.live)
	r.mu.Unlock()
	QueriesActive.Set(float64(n))
	return h
}

// NumLive returns the number of in-flight queries.
func (r *QueryRegistry) NumLive() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

// QueryProgress is a point-in-time view of one in-flight query.
type QueryProgress struct {
	ID           uint64    `json:"id"`
	Digest       string    `json:"plan_digest"`
	Tables       []string  `json:"tables,omitempty"`
	Start        time.Time `json:"start"`
	ElapsedMs    float64   `json:"elapsed_ms"`
	Rows         int64     `json:"rows_scanned"`
	TilesScanned int64     `json:"tiles_scanned"`
	TilesSkipped int64     `json:"tiles_skipped"`
	Bytes        int64     `json:"bytes_read"`
}

// Live snapshots every in-flight query, oldest first.
func (r *QueryRegistry) Live() []QueryProgress {
	r.mu.Lock()
	handles := make([]*QueryHandle, 0, len(r.live))
	for _, h := range r.live {
		handles = append(handles, h)
	}
	r.mu.Unlock()

	out := make([]QueryProgress, 0, len(handles))
	for _, h := range handles {
		rows, ts, tk, bytes := h.Progress()
		out = append(out, QueryProgress{
			ID: h.ID, Digest: h.Digest, Tables: h.Tables, Start: h.Start,
			ElapsedMs:    float64(time.Since(h.Start).Microseconds()) / 1e3,
			Rows:         rows,
			TilesScanned: ts, TilesSkipped: tk, Bytes: bytes,
		})
	}
	sortProgress(out)
	return out
}

func sortProgress(ps []QueryProgress) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].ID < ps[j-1].ID; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
