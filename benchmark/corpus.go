package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/jsontape"
	"repro/internal/workload/tpch"
	"repro/internal/workload/twitter"
	"repro/internal/workload/yelp"
)

// corpus is one workload's generated input: the NDJSON lines loaded
// before queries start and, for the serving workload, the batches
// appended while queries run. The engine sees only these lines; the
// seed stays in the generator.
type corpus struct {
	lines   [][]byte
	bytes   int64
	appends [][][]byte
}

// yelpConfig scales the generator's default type ratios (1 business :
// 2 users : 8 reviews : 2 tips : 1 checkin) to about docs documents.
func yelpConfig(docs int, seed int64) yelp.Config {
	u := docs / 14
	return yelp.Config{Businesses: u, Users: 2 * u, Reviews: 8 * u, Tips: 2 * u, Checkins: u, Seed: seed}
}

func genCorpus(sz sizes, seed int64) (*corpus, error) {
	c := &corpus{}
	switch sz.Corpus {
	case "twitter":
		c.lines = twitter.Generate(twitter.Config{Tweets: sz.Docs, DeleteRatio: 0.4, Seed: seed})
	case "tpch":
		c.lines, _ = tpch.Generate(tpch.Config{ScaleFactor: sz.TPCHScale, Seed: seed})
	case "yelp":
		c.lines, _ = yelp.Generate(yelpConfig(sz.Docs, seed))
	default:
		return nil, fmt.Errorf("unknown corpus %q", sz.Corpus)
	}
	for _, l := range c.lines {
		c.bytes += int64(len(l))
	}
	if n := sz.appendBatches(); n > 0 {
		// Appended batches are a second draw of the collection's
		// growing types — new users, reviews and tips arrive
		// interleaved, while businesses and check-ins stay as loaded —
		// shuffled so that every batch mixes the three types (the bulk
		// load is table by table).
		cfg := yelpConfig(n*sz.BatchDocs*14/12+14, seed+1_000_003)
		all, spans := yelp.Generate(cfg)
		var extra [][]byte
		for _, t := range []string{"user", "review", "tip"} {
			extra = append(extra, all[spans[t][0]:spans[t][1]]...)
		}
		r := rand.New(rand.NewSource(seed + 7))
		r.Shuffle(len(extra), func(i, j int) { extra[i], extra[j] = extra[j], extra[i] })
		for b := 0; b < n; b++ {
			c.appends = append(c.appends, extra[b*sz.BatchDocs:(b+1)*sz.BatchDocs])
		}
	}
	return c, nil
}

// corpusInfo describes the generated lines so that a number in the
// report is tied to a kind of data, not to a generator name. The
// classes follow the taxonomy of JSON Stats Analyzer (Viotti &
// Kinderkhedia): a size tier from the minified document size, a
// content class (textual, numeric, or structural for booleans and
// nulls) from which kind of value holds the most bytes, flat or nested
// from the container depth, and redundant or not from the share of
// values that repeat inside a document. The thresholds are stated in
// README.md.
type corpusInfo struct {
	Docs             int                `json:"docs"`
	Bytes            int64              `json:"bytes"`
	DocBytesP50      float64            `json:"doc_bytes_p50"`
	DocBytesP95      float64            `json:"doc_bytes_p95"`
	MaxDepth         int                `json:"max_depth"`
	DistinctKeyPaths int                `json:"distinct_key_paths"`
	KeyRedundancy    float64            `json:"key_redundancy"`
	DocTypes         map[string]float64 `json:"doc_type_share"`
	TextualShare     float64            `json:"textual_byte_share"`
	NumericShare     float64            `json:"numeric_byte_share"`
	LiteralShare     float64            `json:"bool_null_byte_share"`
	KeyShare         float64            `json:"key_and_punctuation_byte_share"`
	DuplicateValues  float64            `json:"duplicate_value_share_p50"`
	SizeTier         string             `json:"size_tier"`
	ContentClass     string             `json:"content_class"`
	NestingClass     string             `json:"nesting_class"`
	RedundancyClass  string             `json:"redundancy_class"`
}

// shapeWalker accumulates one document's shape from its tape.
type shapeWalker struct {
	d        *jsontape.Doc
	path     []byte
	paths    map[string]int
	depth    int
	textual  int // bytes in string values
	numeric  int // bytes in number literals
	literal  int // bytes in true, false and null
	values   map[string]int
	nvalues  int
	topLevel []string
}

func (w *shapeWalker) visit(i, depth int) {
	d := w.d
	if depth > w.depth {
		w.depth = depth
	}
	n := d.At(i)
	switch n.Kind() {
	case jsontape.KObj:
		j := i + 1
		for k := 0; k < n.Count(); k++ {
			key, _ := d.At(j).RawString()
			mark := len(w.path)
			if mark > 0 {
				w.path = append(w.path, '.')
			}
			w.path = append(w.path, key...)
			if depth == 0 {
				w.topLevel = append(w.topLevel, string(key))
			}
			w.visit(j+1, depth+1)
			w.path = w.path[:mark]
			j = d.Skip(j + 1)
		}
	case jsontape.KArr:
		mark := len(w.path)
		w.path = append(w.path, "[]"...)
		j := i + 1
		for k := 0; k < n.Count(); k++ {
			w.visit(j, depth+1)
			j = d.Skip(j)
		}
		w.path = w.path[:mark]
	default:
		w.paths[string(w.path)]++
		var lit []byte
		switch n.Kind() {
		case jsontape.KString, jsontape.KStringEsc:
			lit, _ = n.RawString()
			w.textual += len(lit)
		case jsontape.KInt, jsontape.KFloat, jsontape.KFloatPre:
			lit = n.Literal()
			w.numeric += len(lit)
		case jsontape.KTrue:
			lit = []byte("true")
			w.literal += len(lit)
		case jsontape.KFalse:
			lit = []byte("false")
			w.literal += len(lit)
		default:
			lit = []byte("null")
			w.literal += len(lit)
		}
		w.values[string(lit)]++
		w.nvalues++
	}
}

// describeCorpus parses every line once and derives the corpus block.
func describeCorpus(lines [][]byte) (corpusInfo, error) {
	info := corpusInfo{Docs: len(lines), DocTypes: map[string]float64{}}
	var (
		doc              jsontape.Doc
		sizes, dup       []float64
		paths            = map[string]int{}
		types            = map[string]int{}
		textual, numeric int64
		literal          int64
		keyOccurrences   int64
		depths           []float64
		w                = shapeWalker{d: &doc, paths: paths, values: map[string]int{}}
	)
	for _, l := range lines {
		if err := jsontape.Parse(l, &doc); err != nil {
			return info, fmt.Errorf("corpus line: %w", err)
		}
		w.depth, w.textual, w.numeric, w.literal, w.nvalues = 0, 0, 0, 0, 0
		w.topLevel = w.topLevel[:0]
		clear(w.values)
		w.visit(0, 0)
		info.Bytes += int64(len(l))
		sizes = append(sizes, float64(len(l)))
		depths = append(depths, float64(w.depth))
		if w.depth > info.MaxDepth {
			info.MaxDepth = w.depth
		}
		textual += int64(w.textual)
		numeric += int64(w.numeric)
		literal += int64(w.literal)
		keyOccurrences += int64(w.nvalues)
		repeated := 0
		for _, n := range w.values {
			if n > 1 {
				repeated += n
			}
		}
		dup = append(dup, ratio(float64(repeated), float64(w.nvalues)))
		sort.Strings(w.topLevel)
		types[strings.Join(w.topLevel, ",")]++
	}
	info.DocBytesP50 = median(sizes)
	info.DocBytesP95 = percentile(sizes, 0.95)
	info.DistinctKeyPaths = len(paths)
	info.KeyRedundancy = 1 - ratio(float64(len(paths)), float64(keyOccurrences))
	info.TextualShare = ratio(float64(textual), float64(info.Bytes))
	info.NumericShare = ratio(float64(numeric), float64(info.Bytes))
	info.LiteralShare = ratio(float64(literal), float64(info.Bytes))
	info.KeyShare = 1 - info.TextualShare - info.NumericShare - info.LiteralShare
	info.DuplicateValues = median(dup)

	// Document types are the distinct top-level key sets; the eight
	// most common are listed and the rest folded together.
	type tc struct {
		keys string
		n    int
	}
	var tcs []tc
	for k, n := range types {
		tcs = append(tcs, tc{k, n})
	}
	sort.Slice(tcs, func(i, j int) bool {
		if tcs[i].n != tcs[j].n {
			return tcs[i].n > tcs[j].n
		}
		return tcs[i].keys < tcs[j].keys
	})
	for i, t := range tcs {
		name := t.keys
		if i >= 8 {
			name = "(other)"
		}
		info.DocTypes[name] += float64(t.n) / float64(len(lines))
	}

	switch {
	case info.DocBytesP50 < 100:
		info.SizeTier = "tier1 (<100 B)"
	case info.DocBytesP50 < 1000:
		info.SizeTier = "tier2 (100 B - 1 KB)"
	default:
		info.SizeTier = "tier3 (>=1 KB)"
	}
	// The content class goes by value bytes alone; keys and
	// punctuation are reported, but say nothing about the content.
	switch {
	case textual >= numeric && textual >= literal:
		info.ContentClass = "textual"
	case numeric >= literal:
		info.ContentClass = "numeric"
	default:
		info.ContentClass = "structural"
	}
	if percentile(depths, 0.95) >= 3 {
		info.NestingClass = "nested"
	} else {
		info.NestingClass = "flat"
	}
	if info.DuplicateValues >= 0.25 {
		info.RedundancyClass = "redundant"
	} else {
		info.RedundancyClass = "non-redundant"
	}
	return info, nil
}
