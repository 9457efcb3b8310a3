package main

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestCheckAcceptsRegistryOutput(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("queries_run").Add(3)
	r.Gauge("bufpool_bytes").Set(4096)
	h := r.Histogram("query_wall_seconds", obs.DurationBuckets)
	h.Observe(0.01)
	h.Observe(2)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	n, err := check(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("registry output rejected: %v\n%s", err, sb.String())
	}
	if n != 3 {
		t.Fatalf("metrics = %d, want 3", n)
	}
}

func TestCheckRejectsMissingType(t *testing.T) {
	_, err := check(strings.NewReader("# TYPE a counter\na 1\nb 2\n"))
	if err == nil || !strings.Contains(err.Error(), "no TYPE line") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckRejectsInfMismatch(t *testing.T) {
	in := `# TYPE h histogram
h_bucket{le="1"} 1
h_bucket{le="+Inf"} 2
h_sum 3
h_count 5
`
	_, err := check(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "+Inf") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckRejectsNonCumulativeBuckets(t *testing.T) {
	in := `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 3
h_count 5
`
	_, err := check(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "cumulative") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckRejectsMissingSumCount(t *testing.T) {
	in := `# TYPE h histogram
h_bucket{le="+Inf"} 0
h_count 0
`
	_, err := check(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "_sum") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckRejectsNegativeCounter(t *testing.T) {
	_, err := check(strings.NewReader("# TYPE c counter\nc -1\n"))
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("err = %v", err)
	}
}

// TestCheckRejectsOtherEscapes: Go's %q escapes (\t, \x..) are not
// label escapes; a parser of the text format rejects the whole scrape.
func TestCheckRejectsOtherEscapes(t *testing.T) {
	for _, label := range []string{`a\tb`, `c\xffd`, `e\u00e9`} {
		in := "# TYPE c counter\nc{tenant=\"" + label + "\"} 1\n"
		_, err := check(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "escape") {
			t.Errorf("%s: err = %v", label, err)
		}
	}
	if _, err := check(strings.NewReader("# TYPE c counter\nc{tenant=\"a\xffb\"} 1\n")); err == nil ||
		!strings.Contains(err.Error(), "UTF-8") {
		t.Errorf("invalid UTF-8: err = %v", err)
	}
}

// TestCheckAcceptsLabelSyntax: a comma or a brace inside quotes is part
// of the value, a raw tab needs no escape, and the three escapes
// decode.
func TestCheckAcceptsLabelSyntax(t *testing.T) {
	in := "# TYPE h histogram\n" +
		"h_bucket{tenant=\"a,b}\tc\",le=\"1\"} 1\n" +
		"h_bucket{tenant=\"q\\\"\\\\\\n\",le=\"+Inf\"} 2\n" +
		"h_sum 3\nh_count 2\n"
	if _, err := check(strings.NewReader(in)); err != nil {
		t.Fatalf("rejected: %v\n%s", err, in)
	}
	labels, err := parseLabels(`tenant="a,b", le="q\"\\\n",`)
	if err != nil {
		t.Fatal(err)
	}
	if labels["tenant"] != "a,b" || labels["le"] != "q\"\\\n" {
		t.Fatalf("labels = %q", labels)
	}
}
