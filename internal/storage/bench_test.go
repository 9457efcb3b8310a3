package storage

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/vec"
)

// BenchmarkWarmScanMixedTiles is the warm scan the engine's TPC-H
// workload is made of: a segment whose tiles mix two document types
// (60 % line items, whose paths are extracted, 40 % orders, served from
// binary JSON), every block resident and already decoded, scanned for
// four paths of the minority type with the first one null-rejecting.
// Per iteration the scan decodes nothing, and resolves the three other
// paths only for the rows the first one leaves.
func BenchmarkWarmScanMixedTiles(b *testing.B) {
	const rows = 16384
	lines := make([][]byte, rows)
	for i := range lines {
		if i%5 < 3 {
			lines[i] = []byte(fmt.Sprintf(`{"l_orderkey":%d,"l_quantity":%d,"l_extendedprice":%d.5,"l_discount":0.0%d,"l_shipmode":"MODE%d"}`,
				i/4, i%50, i*3, i%9, i%7))
		} else {
			lines[i] = []byte(fmt.Sprintf(`{"o_orderkey":%d,"o_custkey":%d,"o_totalprice":%d.25,"o_orderstatus":"%c"}`,
				i, i%1000, i*7, "OFP"[i%3]))
		}
	}
	cfg := DefaultLoaderConfig()
	cfg.Reorder = false // keep every tile mixed
	l, _ := NewLoader(KindTiles, cfg)
	mem, err := l.Load("mixed", lines, 2)
	if err != nil {
		b.Fatal(err)
	}
	rel := memDir(b, cfg, mem)
	accesses := []Access{
		NewAccess(expr.TBigInt, "o_orderkey"),
		NewAccess(expr.TBigInt, "o_custkey"),
		NewAccess(expr.TFloat, "o_totalprice"),
		NewAccess(expr.TText, "o_orderstatus"),
	}
	accesses[0].NullRejecting = true
	scan := func() (n int64) {
		rel.ScanBatches(context.Background(), accesses, 1, func(_ int, bt *vec.Batch) { n += int64(bt.Rows()) }, nil)
		return n
	}
	if got, want := scan(), int64(rows*2/5); got != want { // also warms the pool
		b.Fatalf("scan selected %d rows, want the %d orders", got, want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
}
