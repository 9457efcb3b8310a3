// Command jtpromcheck validates Prometheus text exposition format on
// stdin — the CI smoke check behind the /metrics endpoint:
//
//	curl -s localhost:9811/metrics | jtpromcheck
//
// It verifies that every sample belongs to a metric announced by a
// "# TYPE" line, that histogram series are complete (_bucket with a
// +Inf bound, _sum, _count), that bucket counts are cumulative
// (non-decreasing) with the +Inf bucket equal to _count, that
// counter and histogram-count samples are not negative, and that label
// values are valid UTF-8 using only the format's three escapes.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

func main() {
	metrics, err := check(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jtpromcheck:", err)
		os.Exit(1)
	}
	fmt.Printf("OK: %d metrics\n", metrics)
}

// sample is one parsed line: name, optional le label, value.
type sample struct {
	name  string
	le    string
	value float64
}

// check validates the exposition text and returns the number of
// metrics (TYPE declarations) seen.
func check(r io.Reader) (int, error) {
	types := map[string]string{} // metric -> counter|gauge|histogram
	var samples []sample

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				name, kind := fields[2], fields[3]
				if kind != "counter" && kind != "gauge" && kind != "histogram" {
					return 0, fmt.Errorf("line %d: unknown type %q for %s", lineNo, kind, name)
				}
				if prev, ok := types[name]; ok && prev != kind {
					return 0, fmt.Errorf("line %d: %s re-declared as %s (was %s)", lineNo, name, kind, prev)
				}
				types[name] = kind
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return 0, fmt.Errorf("line %d: %v", lineNo, err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if len(types) == 0 {
		return 0, fmt.Errorf("no TYPE lines found")
	}

	// Every sample must belong to a declared metric. Histogram series
	// map back to their base name by stripping the suffix.
	hist := map[string]*histState{}
	for _, s := range samples {
		base, part := s.name, ""
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(s.name, suffix)
			if trimmed != s.name && types[trimmed] == "histogram" {
				base, part = trimmed, suffix
				break
			}
		}
		kind, ok := types[base]
		if !ok {
			return 0, fmt.Errorf("sample %s has no TYPE line", s.name)
		}
		switch kind {
		case "counter":
			if s.value < 0 {
				return 0, fmt.Errorf("counter %s is negative (%g)", s.name, s.value)
			}
		case "histogram":
			if part == "" {
				return 0, fmt.Errorf("histogram %s has a bare sample %s", base, s.name)
			}
			h := hist[base]
			if h == nil {
				h = &histState{}
				hist[base] = h
			}
			switch part {
			case "_bucket":
				if s.le == "" {
					return 0, fmt.Errorf("%s without le label", s.name)
				}
				h.buckets = append(h.buckets, s)
			case "_sum":
				h.sum, h.hasSum = s.value, true
			case "_count":
				h.count, h.hasCount = s.value, true
			}
		}
	}

	// Histogram invariants.
	for name, kind := range types {
		if kind != "histogram" {
			continue
		}
		h := hist[name]
		if h == nil {
			return 0, fmt.Errorf("histogram %s has no samples", name)
		}
		if !h.hasSum || !h.hasCount {
			return 0, fmt.Errorf("histogram %s missing _sum or _count", name)
		}
		if h.count < 0 {
			return 0, fmt.Errorf("histogram %s count is negative (%g)", name, h.count)
		}
		if len(h.buckets) == 0 {
			return 0, fmt.Errorf("histogram %s has no _bucket series", name)
		}
		if err := checkBuckets(name, h.buckets, h.count); err != nil {
			return 0, err
		}
	}
	return len(types), nil
}

type histState struct {
	buckets          []sample
	sum, count       float64
	hasSum, hasCount bool
}

// checkBuckets verifies the bucket series is cumulative in bound
// order and ends in a +Inf bucket equal to _count.
func checkBuckets(name string, buckets []sample, count float64) error {
	type bb struct {
		bound float64
		value float64
	}
	parsed := make([]bb, 0, len(buckets))
	sawInf := false
	for _, b := range buckets {
		if b.le == "+Inf" {
			sawInf = true
			if b.value != count {
				return fmt.Errorf("histogram %s: le=\"+Inf\" bucket %g != count %g", name, b.value, count)
			}
			parsed = append(parsed, bb{bound: maxFloat, value: b.value})
			continue
		}
		bound, err := strconv.ParseFloat(b.le, 64)
		if err != nil {
			return fmt.Errorf("histogram %s: bad le %q", name, b.le)
		}
		parsed = append(parsed, bb{bound: bound, value: b.value})
	}
	if !sawInf {
		return fmt.Errorf("histogram %s lacks a +Inf bucket", name)
	}
	sort.Slice(parsed, func(i, j int) bool { return parsed[i].bound < parsed[j].bound })
	prev := 0.0
	for _, b := range parsed {
		if b.value < prev {
			return fmt.Errorf("histogram %s: bucket counts not cumulative at le=%g (%g < %g)",
				name, b.bound, b.value, prev)
		}
		prev = b.value
	}
	return nil
}

const maxFloat = 1.797693134862315708145274237317043567981e+308

// parseSample splits `name[{le="..."}] value` into its parts. Only the
// le label matters to the checks; other labels are tolerated.
func parseSample(line string) (sample, error) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return sample{}, fmt.Errorf("malformed sample %q", line)
	}
	head, valStr := line[:sp], line[sp+1:]
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return sample{}, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s := sample{name: head, value: v}
	if i := strings.IndexByte(head, '{'); i >= 0 {
		if !strings.HasSuffix(head, "}") {
			return sample{}, fmt.Errorf("unclosed label set in %q", line)
		}
		s.name = head[:i]
		labels, err := parseLabels(head[i+1 : len(head)-1])
		if err != nil {
			return sample{}, fmt.Errorf("%v in %q", err, line)
		}
		s.le = labels["le"]
	}
	if s.name == "" {
		return sample{}, fmt.Errorf("empty metric name in %q", line)
	}
	return s, nil
}

// labelRE matches the first label of a label set as the text format
// defines it: name="value", where the value escapes only a backslash,
// a double quote and a newline (\\, \" and \n), followed by a comma
// unless it ends the set. A comma or a brace inside the quotes is part
// of the value.
var labelRE = regexp.MustCompile(`^\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"((?:[^"\\]|\\[\\"n])*)"\s*(?:,|$)`)

var labelUnescaper = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")

// parseLabels parses the inside of a label set into its values, which
// must be valid UTF-8.
func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		m := labelRE.FindStringSubmatch(s)
		if m == nil {
			return nil, fmt.Errorf(`malformed label in %q (a value is quoted and escapes only \\, \" and \n)`, s)
		}
		if !utf8.ValidString(m[2]) {
			return nil, fmt.Errorf("label %s is not valid UTF-8", m[1])
		}
		labels[m[1]] = labelUnescaper.Replace(m[2])
		s = s[len(m[0]):]
	}
	return labels, nil
}
