package obs

// Multi-tenant accounting: tenant identity rides the query context
// (WithTenant/TenantFrom), and every tenant gets its own counter
// block in a process-wide registry, exported on /metrics as labeled
// Prometheus series (`tenant_queries_total{tenant="a"} 3`). The
// per-tenant instruments are plain Counters/Gauges, so hot paths pay
// one registry lookup per query, not per row.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

type tenantKey struct{}

// WithTenant returns a context carrying the tenant identity. Scans,
// buffer-pool charging, and query accounting attribute their work to
// it.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantFrom extracts the tenant identity from a context ("" when the
// context carries none — library calls without a service in front).
func TenantFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}

// TenantCounters is one tenant's instrument block.
type TenantCounters struct {
	// Queries counts completed queries; Cancelled the subset that
	// ended on context cancellation or deadline.
	Queries   Counter
	Cancelled Counter
	// RowsReturned totals final result rows; BytesScanned the stored
	// bytes this tenant's scans read from disk (buffer-pool misses).
	RowsReturned Counter
	BytesScanned Counter
	// QueueWaits counts queries that waited in the admission queue;
	// Rejections those turned away (queue full or timed out).
	QueueWaits Counter
	Rejections Counter
	// PoolBytes is the tenant's resident buffer-pool payload bytes;
	// PoolQuota its configured byte quota (0 = unquoted).
	PoolBytes Gauge
	PoolQuota Gauge
}

// TenantRegistry maps tenant names to their counter blocks.
type TenantRegistry struct {
	mu sync.RWMutex
	m  map[string]*TenantCounters
}

// NewTenantRegistry returns an empty registry.
func NewTenantRegistry() *TenantRegistry {
	return &TenantRegistry{m: map[string]*TenantCounters{}}
}

// Tenants is the process-wide tenant registry.
var Tenants = NewTenantRegistry()

// Get returns tenant's counter block, creating it on first use. The
// pointer is stable for the process lifetime.
func (r *TenantRegistry) Get(tenant string) *TenantCounters {
	r.mu.RLock()
	tc, ok := r.m[tenant]
	r.mu.RUnlock()
	if ok {
		return tc
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if tc, ok = r.m[tenant]; ok {
		return tc
	}
	tc = &TenantCounters{}
	r.m[tenant] = tc
	return tc
}

// Names returns the known tenants, sorted.
func (r *TenantRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// tenantMetric describes one exported per-tenant series.
type tenantMetric struct {
	name  string
	kind  string // "counter" or "gauge"
	value func(*TenantCounters) float64
}

var tenantMetrics = []tenantMetric{
	{"tenant_queries_total", "counter", func(t *TenantCounters) float64 { return float64(t.Queries.Load()) }},
	{"tenant_queries_cancelled_total", "counter", func(t *TenantCounters) float64 { return float64(t.Cancelled.Load()) }},
	{"tenant_rows_returned_total", "counter", func(t *TenantCounters) float64 { return float64(t.RowsReturned.Load()) }},
	{"tenant_bytes_scanned_total", "counter", func(t *TenantCounters) float64 { return float64(t.BytesScanned.Load()) }},
	{"tenant_queue_waits_total", "counter", func(t *TenantCounters) float64 { return float64(t.QueueWaits.Load()) }},
	{"tenant_rejections_total", "counter", func(t *TenantCounters) float64 { return float64(t.Rejections.Load()) }},
	{"tenant_pool_bytes", "gauge", func(t *TenantCounters) float64 { return t.PoolBytes.Load() }},
	{"tenant_pool_quota_bytes", "gauge", func(t *TenantCounters) float64 { return t.PoolQuota.Load() }},
}

// WriteTo exports every tenant's instruments as labeled Prometheus
// series, one TYPE line per metric followed by one sample per tenant.
func (r *TenantRegistry) WriteTo(w io.Writer) (int64, error) {
	names := r.Names()
	if len(names) == 0 {
		return 0, nil
	}
	blocks := make([]*TenantCounters, len(names))
	labels := make([]string, len(names))
	for i, name := range names {
		blocks[i] = r.Get(name)
		labels[i] = quoteLabel(name)
	}
	var total int64
	for _, m := range tenantMetrics {
		n, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind)
		total += int64(n)
		if err != nil {
			return total, err
		}
		for i, label := range labels {
			n, err := fmt.Fprintf(w, "%s{tenant=%s} %s\n", m.name, label, formatFloat(m.value(blocks[i])))
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// labelEscaper escapes the three characters the text exposition format
// escapes in a label value; it admits no other escape.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// quoteLabel quotes a label value for the text exposition format. A
// tenant name comes from a request header, so it may hold any byte:
// invalid UTF-8 becomes U+FFFD, and everything else but the three
// escaped characters passes through as it is.
func quoteLabel(v string) string {
	return `"` + labelEscaper.Replace(strings.ToValidUTF8(v, "\uFFFD")) + `"`
}

// WriteAllMetrics exports the default registry followed by the
// per-tenant series — the full /metrics payload, shared by the debug
// server and the query service.
func WriteAllMetrics(w io.Writer) (int64, error) {
	n1, err := Default.WriteTo(w)
	if err != nil {
		return n1, err
	}
	n2, err := Tenants.WriteTo(w)
	return n1 + n2, err
}
