// Package dates implements the date/time detection of paper §4.9.
// JSON has no date type, so dates arrive as strings; queries cast them
// (`->>'create'::Date`). When the values of a string column match a
// known date or time format, the tile extractor stores them as SQL
// Timestamps, and the cast resolves against the typed column. Because
// the exact input string cannot always be recreated from a timestamp,
// extracted timestamps are only served for Date/Time-typed casts —
// text accesses fall back to the binary JSON (the "hybrid method").
package dates

import "time"

// Micros is a timestamp in microseconds since the Unix epoch — the
// SQL Timestamp representation used by extracted columns.
type Micros = int64

// layouts are tried in order. The set covers ISO 8601/RFC 3339, SQL
// timestamp syntax, the Twitter API's created_at format, and plain
// dates — the formats of the paper's evaluated data sets.
var layouts = []string{
	"2006-01-02 15:04:05",
	"2006-01-02T15:04:05Z07:00", // RFC 3339
	"2006-01-02T15:04:05",
	"2006-01-02 15:04:05.999999",
	"2006-01-02",
	"Mon Jan 02 15:04:05 -0700 2006", // Twitter created_at
	"2006/01/02",
	"01/02/2006",
	"2006-01-02 15:04:05 -0700",
}

// Parse attempts to interpret s as a date or timestamp, returning
// microseconds since the epoch. Matching is strict: the whole string
// must be consumed by one known layout.
func Parse(s string) (Micros, bool) {
	if len(s) < 8 || len(s) > 35 {
		return 0, false
	}
	// Cheap pre-filter: a date/time string starts with a digit or a
	// weekday name and contains a separator. A layout starting with
	// the other class cannot match, and trying it would allocate the
	// error it fails with.
	c := s[0]
	if !(c >= '0' && c <= '9') && !(c >= 'A' && c <= 'Z') {
		return 0, false
	}
	for _, layout := range layouts {
		if len(layout) > len(s)+6 || len(layout) < len(s)-12 || (layout[0] <= '9') != (c <= '9') {
			continue
		}
		if t, err := time.Parse(layout, s); err == nil {
			return t.UnixMicro(), true
		}
	}
	return 0, false
}

// Format renders a timestamp in SQL form ("2006-01-02 15:04:05"), the
// representation returned for Date/Time-typed casts.
func Format(m Micros) string {
	return time.UnixMicro(m).UTC().Format("2006-01-02 15:04:05")
}

// FormatDate renders just the date part.
func FormatDate(m Micros) string {
	return time.UnixMicro(m).UTC().Format("2006-01-02")
}

// FromTime converts a time.Time.
func FromTime(t time.Time) Micros { return t.UnixMicro() }

// ToTime converts back to a time.Time in UTC.
func ToTime(m Micros) time.Time { return time.UnixMicro(m).UTC() }

// DetectColumn samples string values and reports whether the column
// should be extracted as Timestamp: every sampled non-empty value must
// parse. The paper samples the potential column before deciding
// (§4.9); sampleLimit bounds the work.
func DetectColumn(values []string, sampleLimit int) bool {
	if len(values) == 0 {
		return false
	}
	if sampleLimit <= 0 {
		sampleLimit = 64
	}
	checked := 0
	step := len(values)/sampleLimit + 1
	for i := 0; i < len(values); i += step {
		if _, ok := Parse(values[i]); !ok {
			return false
		}
		checked++
	}
	return checked > 0
}
