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
// handler — decode, plan, scan, sort or group, encode — over 1,500
// Yelp businesses and 3,000 check-ins. "scan" is the served
// benchmark's project-one-type class: a plain scan of four columns,
// two text columns and two that are NULL in every check-in, sorted by
// every column. "grouped" groups the businesses by state and keeps the
// top five: few rows out, so the fixed per-query costs (planning,
// tracing, the query's records) show.
func BenchmarkServeProjectOneType(b *testing.B) {
	docs, _ := yelp.Generate(yelp.Config{Businesses: 1500, Checkins: 3000, Seed: 1})
	tbl, err := jsontiles.Load("yelp", docs, jsontiles.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{})
	s.Register("yelp", tbl)
	h := s.Handler()
	for _, bc := range []struct {
		name string
		env  string
		rows int
	}{
		{"scan", `{"table":"yelp",
			"select":["data->>'business_id'","data->>'date'","data->>'review_id'","data->>'compliment_count'::BigInt"],
			"where":[{"col":1,"op":"not_null"},{"col":2,"op":"null"},{"col":3,"op":"null"}]}`, 3000},
		{"grouped", `{"table":"yelp",
			"select":["data->>'state'","data->>'stars'::Float"],
			"where":[{"col":0,"op":"not_null"}],
			"group_by":[0],"aggs":[{"fn":"count","name":"n"},{"fn":"avg","col":1,"name":"stars"}],
			"order_by":[{"col":1,"desc":true}],"limit":5}`, 5},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(bc.env)))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			if rows := strings.Count(rec.Body.String(), "\n") - 2; rows != bc.rows {
				b.Fatalf("%d rows, want %d", rows, bc.rows)
			}
			// The timed loop writes into a sink that keeps nothing, so
			// B/op is the handler's own allocation, not a growing
			// response buffer.
			w := &discardWriter{header: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(bc.env)))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.rows), "ns/row")
		})
	}
}

// discardWriter is an http.ResponseWriter that drops the body.
type discardWriter struct{ header http.Header }

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}
