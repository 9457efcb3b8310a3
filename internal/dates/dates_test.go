package dates

import (
	"testing"
	"time"
)

func TestParseFormats(t *testing.T) {
	ok := []string{
		"2020-06-01",
		"2020-06-01 13:45:09",
		"2020-06-01T13:45:09Z",
		"2020-06-01T13:45:09+02:00",
		"2020-06-01T13:45:09",
		"Mon Jun 01 13:45:09 +0000 2020",
		"2020/06/01",
		"06/01/2020",
	}
	for _, s := range ok {
		if _, got := Parse(s); !got {
			t.Errorf("Parse(%q) failed", s)
		}
	}
	bad := []string{
		"", "hello", "12345678", "2020-13-40", "not a date at all",
		"2020-06-01x", "99.99", "June first", "1/10",
	}
	for _, s := range bad {
		if _, got := Parse(s); got {
			t.Errorf("Parse(%q) unexpectedly succeeded", s)
		}
	}
}

func TestParseValue(t *testing.T) {
	m, ok := Parse("2020-06-01 00:00:00")
	if !ok {
		t.Fatal("parse failed")
	}
	want := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC).UnixMicro()
	if m != want {
		t.Errorf("micros = %d, want %d", m, want)
	}
	if Format(m) != "2020-06-01 00:00:00" {
		t.Errorf("Format = %s", Format(m))
	}
	if FormatDate(m) != "2020-06-01" {
		t.Errorf("FormatDate = %s", FormatDate(m))
	}
}

func TestRoundTripThroughTime(t *testing.T) {
	now := time.Date(2021, 3, 14, 15, 9, 26, 535000, time.UTC)
	m := FromTime(now)
	if !ToTime(m).Equal(now) {
		t.Errorf("round trip: %v != %v", ToTime(m), now)
	}
}

func TestDetectColumn(t *testing.T) {
	dates := []string{"2020-06-01", "2020-06-02", "2020-06-03"}
	if !DetectColumn(dates, 0) {
		t.Error("all-dates column not detected")
	}
	mixed := []string{"2020-06-01", "not-a-date", "2020-06-03"}
	if DetectColumn(mixed, 0) {
		t.Error("mixed column detected as dates")
	}
	if DetectColumn(nil, 0) {
		t.Error("empty column detected")
	}
	names := []string{"alice", "bob"}
	if DetectColumn(names, 0) {
		t.Error("names detected as dates")
	}
}

func TestDetectColumnSampling(t *testing.T) {
	// Large column: detection must stay cheap but still correct.
	many := make([]string, 100000)
	for i := range many {
		many[i] = "2020-06-01 10:00:00"
	}
	if !DetectColumn(many, 64) {
		t.Error("large date column not detected")
	}
}

// parseEveryLayout is Parse without the first-byte filter: every
// layout of a fitting length is tried.
func parseEveryLayout(s string) (Micros, bool) {
	if len(s) < 8 || len(s) > 35 {
		return 0, false
	}
	if c := s[0]; !(c >= '0' && c <= '9') && !(c >= 'A' && c <= 'Z') {
		return 0, false
	}
	for _, layout := range layouts {
		if len(layout) > len(s)+6 || len(layout) < len(s)-12 {
			continue
		}
		if t, err := time.Parse(layout, s); err == nil {
			return t.UnixMicro(), true
		}
	}
	return 0, false
}

// TestParseSkipsOtherFirstByteClass: skipping the layouts whose first
// byte is of the other class (digit against weekday letter) changes no
// answer, on every layout's own rendering and on near misses of each.
func TestParseSkipsOtherFirstByteClass(t *testing.T) {
	at := time.Date(2020, 6, 1, 13, 45, 9, 120000000, time.FixedZone("", -7*3600))
	inputs := []string{"Mon Jun 01 13:45:09 +0000 2020", "Monday", "M0n Jun 01 13:45:09 +0000 2020",
		"2Mon Jun 01 13:45:09 +0000 2020", "Sat Jan 01 00:00:00 -1200 2000", "Tue 2020-06-01"}
	for _, layout := range layouts {
		s := at.Format(layout)
		inputs = append(inputs, s, s+"x", "x"+s, s[1:], s[:len(s)-1], "M"+s[1:], "9"+s[1:])
	}
	for _, s := range inputs {
		got, ok := Parse(s)
		want, wok := parseEveryLayout(s)
		if got != want || ok != wok {
			t.Errorf("Parse(%q) = %d, %v; every layout gives %d, %v", s, got, ok, want, wok)
		}
	}
}

// TestParseTwitterAllocatesNothing: a Twitter created_at tries no
// ISO layout, so no failed parse allocates its error.
func TestParseTwitterAllocatesNothing(t *testing.T) {
	const s = "Mon Jun 01 13:45:09 +0000 2020"
	if n := testing.AllocsPerRun(100, func() { Parse(s) }); n != 0 {
		t.Errorf("Parse(%q) allocates %v times", s, n)
	}
}
