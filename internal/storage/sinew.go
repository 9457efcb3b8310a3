package storage

import (
	"context"
	"math"
	"sort"

	"repro/internal/column"
	"repro/internal/expr"
	"repro/internal/jsonb"
	"repro/internal/jsontape"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tile"
)

// sinew implements the Sinew [57] baseline: one global schema,
// extracting every key path whose table-wide frequency reaches the
// threshold (the original paper's 60 %). There is no locality, no
// reordering, no date detection, and no per-key statistics — the
// paper's §6 configuration. Values whose type differs from the
// column's (or whose key fell under the threshold) are answered from
// the per-document binary JSON.
type sinew struct {
	name     string
	numRows  int
	maxSlots int
	cols     []tile.ColumnInfo // StorageType is the mined type: no dates
	byPath   map[string]int
	raw      [][]byte
}

// sinewThreshold is Sinew's global column-extraction threshold: the
// original paper's 60 %.
const sinewThreshold = 0.6

// The global schema is one tile holding every row, with no seen-path
// filter, so the scan plans its accesses as the tile scan core would.
var _ scanTile = (*sinew)(nil)

func (r *sinew) MayContainPath(string) bool      { return true }
func (r *sinew) Column(idx int) *tile.ColumnInfo { return &r.cols[idx] }
func (r *sinew) Raw(i int) jsonb.Doc             { return jsonb.NewDoc(r.raw[i]) }

func (r *sinew) ColumnsForPath(path string) []int {
	if ci, ok := r.byPath[path]; ok {
		return []int{ci}
	}
	return nil
}

func (r *sinew) ColumnType(idx int) (keypath.ValueType, bool) {
	return r.cols[idx].StorageType, r.cols[idx].HasTypeOutliers
}

type sinewLoader struct{ cfg LoaderConfig }

func (r *sinew) Name() string             { return r.name }
func (r *sinew) NumRows() int             { return r.numRows }
func (r *sinew) Stats() *stats.TableStats { return nil }

func (r *sinew) SizeBytes() int {
	total := 0
	for _, c := range r.cols {
		total += c.Col.SizeBytes()
	}
	for _, d := range r.raw {
		total += len(d)
	}
	return total
}

// ColumnSizeBytes is the extraction overhead beyond the binary JSON.
func (r *sinew) ColumnSizeBytes() int {
	total := 0
	for _, c := range r.cols {
		total += c.Col.SizeBytes()
	}
	return total
}

// ExtractedPaths lists the globally extracted paths (tests).
func (r *sinew) ExtractedPaths() []string {
	out := make([]string, len(r.cols))
	for i, c := range r.cols {
		out[i] = c.Path
	}
	return out
}

// ScanBatches implements BatchScanner; Sinew's global schema has no
// tiles, but the column-hit vs fallback split is still the interesting
// signal (accesses missing from the single schema always fall back).
func (r *sinew) ScanBatches(ctx context.Context, accesses []Access, workers int, emit BatchEmitFunc, st *obs.ScanStats) {
	plans := make([]accessPlan, len(accesses))
	cols := make([]*column.Column, len(accesses))
	headers := headerPaths(accesses, r.maxSlots)
	for i, a := range accesses {
		plans[i] = planAccess(r, a, headers[i])
		if plans[i].readsColumn() {
			cols[i] = r.cols[plans[i].col].Col
		}
	}
	scanCells(ctx, r.numRows, accesses, workers, emit, st, func(lo, hi int, out [][]expr.Value, cnt *scanCounters) {
		for ai, a := range accesses {
			for i := lo; i < hi; i++ {
				out[ai][i-lo] = plans[ai].cell(r, cols[ai], i, a, cnt)
			}
		}
	})
}

// Load builds the Sinew relation: the global frequency pass and the
// column materialization walk tapes (the deliberately single-threaded
// part: the paper attributes Sinew's loading drop to "the
// single-threaded frequency algorithm and the materialization of the
// detected columns", §6.8), and the binary JSON fallback encodes tapes
// in parallel.
func (l sinewLoader) Load(name string, lines [][]byte, workers int) (Relation, error) {
	tapes, err := parseAllTapes(lines, workers)
	if err != nil {
		return nil, err
	}
	obs.IngestDocsTape.Add(int64(len(tapes)))
	maxSlots := l.cfg.Tile.MaxArraySlots

	// Global frequency pass over a shared dictionary: AddBytes avoids a
	// path allocation per leaf.
	dict := keypath.NewDict()
	var counts []int
	for _, d := range tapes {
		keypath.CollectTape(d, maxSlots, func(pathEnc []byte, t keypath.ValueType, n jsontape.Node) {
			switch t {
			case keypath.TypeBool, keypath.TypeBigInt, keypath.TypeDouble, keypath.TypeString:
				id := dict.AddBytes(pathEnc, t)
				for int(id) >= len(counts) {
					counts = append(counts, 0)
				}
				counts[id]++
			}
		})
	}
	need := int(math.Ceil(sinewThreshold * float64(len(tapes))))
	if need < 1 {
		need = 1
	}
	// Pick extracted items; when several types of one path qualify
	// (possible only with thresholds < 50 %) keep the most frequent.
	bestForPath := map[string]keypath.Item{}
	freqOf := func(it keypath.Item) int {
		if id, ok := dict.Get(it.Path, it.Type); ok {
			return counts[id]
		}
		return 0
	}
	for id := int32(0); id < int32(dict.Len()); id++ {
		c := counts[id]
		if c < need {
			continue
		}
		it := dict.Item(id)
		if prev, ok := bestForPath[it.Path]; !ok || freqOf(prev) < c ||
			(freqOf(prev) == c && it.Type < prev.Type) {
			bestForPath[it.Path] = it
		}
	}
	var items []keypath.Item
	for _, it := range bestForPath {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Path < items[j].Path })

	r := &sinew{name: name, numRows: len(tapes), maxSlots: scanCfgOf(l.cfg).maxSlots, byPath: map[string]int{}}
	for _, it := range items {
		r.byPath[it.Path] = len(r.cols)
		r.cols = append(r.cols, tile.ColumnInfo{
			Path:        it.Path,
			MinedType:   it.Type,
			StorageType: it.Type,
			Col:         column.New(it.Type),
		})
	}

	// Materialize. A document's value for a path is its last
	// occurrence: a generation-stamped per-column slot holds it, and the
	// walk overwrites the slot on every occurrence of the column's path,
	// whatever the type.
	nCols := len(r.cols)
	stamp := make([]int, nCols)
	for i := range stamp {
		stamp[i] = -1
	}
	lastType := make([]keypath.ValueType, nCols)
	lastNode := make([]jsontape.Node, nCols)
	for di, d := range tapes {
		keypath.CollectTape(d, maxSlots, func(pathEnc []byte, t keypath.ValueType, n jsontape.Node) {
			ci, ok := r.byPath[string(pathEnc)]
			if !ok {
				return
			}
			stamp[ci] = di
			lastType[ci] = t
			lastNode[ci] = n
		})
		for ci := range r.cols {
			sc := &r.cols[ci]
			if stamp[ci] != di {
				sc.Col.AppendNull()
				continue
			}
			if lastType[ci] != sc.MinedType {
				sc.Col.AppendNull()
				if lastType[ci] != keypath.TypeNull {
					sc.HasTypeOutliers = true
				}
				continue
			}
			n := lastNode[ci]
			switch sc.MinedType {
			case keypath.TypeBigInt:
				sc.Col.AppendInt(n.IntVal())
			case keypath.TypeDouble:
				sc.Col.AppendFloat(n.FloatVal())
			case keypath.TypeBool:
				sc.Col.AppendBool(n.BoolVal())
			case keypath.TypeString:
				sc.Col.AppendString(n.StringVal())
			}
		}
	}

	// Binary JSON fallback storage (parallel, like the JSONB format).
	r.raw = make([][]byte, len(tapes))
	morselRange(context.Background(), len(tapes), workers, func(w, lo, hi int) {
		s := ingestScratchPool.Get().(*ingestScratch)
		defer ingestScratchPool.Put(s)
		for i := lo; i < hi; i++ {
			r.raw[i] = s.enc.EncodeTape(tapes[i])
		}
	})
	return r, nil
}
