package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/vec"
)

// TestSortBufStaysBounded: with a Limit K, a worker's buffer is cut
// the moment it holds 2K rows, so it holds fewer than 2K after every
// batch it is handed, and its column buffers stay in step.
func TestSortBufStaysBounded(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	src := randSource(r, []expr.SQLType{expr.TBigInt, expr.TText, expr.TBigInt}, 2, 5000, 2)
	for _, k := range []int{1, 7, 64} {
		buf := newSortBuf(src.cols, []int{0, 1}, []bool{true, false}, k)
		peak := 0
		for _, b := range src.batches {
			buf.add(b)
			if buf.n >= 2*k {
				t.Fatalf("limit %d: %d rows held after a batch, want fewer than %d", k, buf.n, 2*k)
			}
			for c, bl := range buf.cols {
				if bl.Len() != buf.n {
					t.Fatalf("limit %d: column %d holds %d rows, buffer %d", k, c, bl.Len(), buf.n)
				}
			}
			peak = max(peak, buf.n)
		}
		if peak < k {
			t.Errorf("limit %d: buffer peaked at %d rows, so the input never filled it", k, peak)
		}
	}
}

// FuzzOrderBy sorts random key vectors — typed and boxed, with NULLs,
// NaN, -0 and ties — by one to three keys (columns, or 3 minus a
// BigInt column) in either direction, at one and three workers. The
// full sort lists the keys in refSort's order and returns every input
// row (the same sequence at one worker, where ties keep batch order);
// a top-K under any LIMIT is the full sort's prefix. `go test` runs the seeds;
// `go test -run '^$' -fuzz FuzzOrderBy ./internal/engine` digs.
func FuzzOrderBy(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint16(seed*5))
	}
	f.Fuzz(func(t *testing.T, seed int64, limit uint16) {
		r := rand.New(rand.NewSource(seed))
		kinds := []expr.SQLType{expr.TBigInt, expr.TFloat, expr.TText, expr.TTimestamp}
		nk := 1 + r.Intn(3)
		types := make([]expr.SQLType, nk+1) // the keys, then a row id
		keys := make([]OrderKey, nk)
		for k := range keys {
			types[k] = kinds[r.Intn(len(kinds))]
			keys[k] = OrderKey{E: expr.NewCol(k, types[k]), Desc: r.Intn(2) == 0}
			if types[k] == expr.TBigInt && r.Intn(2) == 0 { // a computed key
				keys[k].E = expr.NewArith(expr.Sub, expr.NewConst(expr.IntValue(3)), keys[k].E)
			}
		}
		types[nk] = expr.TBigInt
		src := randSource(r, types, nk, r.Intn(400), nk)
		want := refSort(src.rows, keys)
		keyIDs := func(rows [][]expr.Value) []string {
			out := make([]string, len(rows))
			for i, row := range rows {
				out[i] = rowID(row[:nk])
			}
			return out
		}
		k := int(limit) % (len(want) + 2)
		for _, w := range []int{1, 3} {
			label := fmt.Sprintf("seed %d, %d workers", seed, w)
			full := Materialize(NewOrderBy(src, keys...), w).Rows
			sameSequence(t, label+", keys", keyIDs(full), keyIDs(want))
			sameMultiset(t, label+", rows", rowIDs(full), rowIDs(want))
			if w == 1 {
				sameSequence(t, label, rowIDs(full), rowIDs(want))
			}
			top := NewOrderBy(src, keys...)
			top.Limit = k
			prefix := full
			if k > 0 && len(prefix) > k {
				prefix = prefix[:k]
			}
			sameSequence(t, fmt.Sprintf("%s, limit %d", label, k), rowIDs(Materialize(top, w).Rows), rowIDs(prefix))
		}
	})
}

// orderBySource is 64 batches of 1024 rows: a BigInt column and a
// text column, both with ties.
func orderBySource() *batchSource {
	r := rand.New(rand.NewSource(1))
	src := &batchSource{cols: []ColumnDesc{{"n", expr.TBigInt}, {"s", expr.TText}}}
	for range 64 {
		bufs := newBufs(src.cols)
		for i := range 1024 {
			bufs[0].Int(i, r.Int63n(1<<16))
			bufs[1].Value(i, expr.TextValue(fmt.Sprintf("user%06d", r.Intn(1<<16))))
		}
		src.batches = append(src.batches, &vec.Batch{Len: 1024, Cols: []vec.Vector{*bufs[0].Vector(), *bufs[1].Vector()}})
	}
	return src
}

// benchOrderBy sorts the 64 K rows of orderBySource by a BigInt key
// (descending) or a text key, keeping limit rows (0: all).
func benchOrderBy(b *testing.B, limit int) {
	src := orderBySource()
	for _, key := range []OrderKey{{E: expr.NewCol(0, expr.TBigInt), Desc: true}, {E: expr.NewCol(1, expr.TText)}} {
		b.Run(key.E.Type().String(), func(b *testing.B) {
			want := int64(64 * 1024)
			if limit > 0 {
				want = int64(limit)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ob := NewOrderBy(src, key)
				ob.Limit = limit
				if n := CountRows(ob, 1); n != want {
					b.Fatalf("sorted rows = %d, want %d", n, want)
				}
			}
		})
	}
}

// BenchmarkOrderByTopK keeps the first 20 of 64 K rows.
func BenchmarkOrderByTopK(b *testing.B) { benchOrderBy(b, 20) }

// BenchmarkOrderByFull sorts all 64 K rows.
func BenchmarkOrderByFull(b *testing.B) { benchOrderBy(b, 0) }
