package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	jsontiles "repro"
	"repro/internal/workload/yelp"
)

// BenchmarkServeProjectOneType runs /query end to end through the
// handler — decode, plan, scan, sort, encode — for a plain scan of four
// columns over 3,000 Yelp check-ins, the shape of the served
// benchmark's project-one-type class: two text columns and two that
// are NULL in every check-in, sorted by every column.
func BenchmarkServeProjectOneType(b *testing.B) {
	docs, _ := yelp.Generate(yelp.Config{Businesses: 1500, Checkins: 3000, Seed: 1})
	tbl, err := jsontiles.Load("yelp", docs, jsontiles.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{})
	s.Register("yelp", tbl)
	h := s.Handler()
	const env = `{"table":"yelp",
		"select":["data->>'business_id'","data->>'date'","data->>'review_id'","data->>'compliment_count'::BigInt"],
		"where":[{"col":1,"op":"not_null"},{"col":2,"op":"null"},{"col":3,"op":"null"}]}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(env)))
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	rows := strings.Count(rec.Body.String(), "\n") - 2
	if rows != 3000 {
		b.Fatalf("%d rows, want 3000", rows)
	}
	// The timed loop writes into a sink that keeps nothing, so B/op is
	// the handler's own allocation, not a growing response buffer.
	w := &discardWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(env)))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// discardWriter is an http.ResponseWriter that drops the body.
type discardWriter struct{ header http.Header }

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}
