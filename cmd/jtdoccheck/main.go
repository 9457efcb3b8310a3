// Command jtdoccheck fails when code and docs drift apart. It is a CI
// step, not a linter: the rules are exactly the repo's documentation
// invariants, so a failure means a doc edit is part of the change.
//
//	jtdoccheck            # from the repo root
//	jtdoccheck -root ..   # from elsewhere
//
// Checks:
//
//  1. Every instrument registered in internal/obs (Default.Counter,
//     Default.Gauge, Default.Histogram) is documented in DESIGN.md's
//     observability-mapping section (§7).
//  2. Every `jtbench <id>` command written in README.md, DESIGN.md or
//     EXPERIMENTS.md (inline code or a fenced block) names an
//     experiment of bench.Experiments(), or "all".
//  3. Every backticked `pkg.Name` or `pkg.Type.Member` in DESIGN.md
//     and README.md names a declaration in that package's non-test
//     .go files, where pkg is a directory under internal/ or jsontiles
//     (the root package); other qualifiers (the standard library,
//     variables) are not checked. A bare backticked `TestX`,
//     `BenchmarkX` or `FuzzX` names a function of some _test.go file,
//     and a bare lower-camelCase `name` (`scanBatchesCore`) a top-level
//     declaration, method or struct field of some non-test file.
//  4. Every backticked file path in README.md, DESIGN.md or
//     EXPERIMENTS.md exists (see missingPath for what counts as one).
//  5. Every CHANGES.md entry (a line starting "- PR NN:") numbered
//     firstBudgetedPR or above is at most entryBudget bytes; its
//     measurements go in results/PR-NN.md. Older entries are not held
//     to it.
//  6. DESIGN.md and README.md are no larger than their docBudgets
//     bytes: the documents do not grow, and a change that shrinks one
//     lowers its budget to the new size.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
)

var instrumentRE = regexp.MustCompile(`Default\.(Counter|Gauge|Histogram)\("([a-z0-9_]+)"`)

// obsInstruments scans the obs package source for registered
// instrument names.
func obsInstruments(obsDir string) (map[string]string, error) {
	files, err := filepath.Glob(filepath.Join(obsDir, "*.go"))
	if err != nil {
		return nil, err
	}
	names := map[string]string{} // name -> kind
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for _, m := range instrumentRE.FindAllStringSubmatch(string(b), -1) {
			names[m[2]] = strings.ToLower(m[1])
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no instruments found under %s — wrong -root?", obsDir)
	}
	return names, nil
}

// observabilitySection extracts DESIGN.md's §7 (observability mapping)
// region: from its heading to the next top-level section or EOF.
func observabilitySection(design []byte) (string, error) {
	lines := strings.Split(string(design), "\n")
	start := -1
	for i, l := range lines {
		if start < 0 && strings.HasPrefix(l, "## 7.") {
			start = i
			continue
		}
		if start >= 0 && strings.HasPrefix(l, "## ") {
			return strings.Join(lines[start:i], "\n"), nil
		}
	}
	if start < 0 {
		return "", fmt.Errorf("DESIGN.md has no '## 7.' observability section")
	}
	return strings.Join(lines[start:], "\n"), nil
}

var (
	codeSpanRE = regexp.MustCompile("`[^`\n]+`")
	qualRE     = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)
	testNameRE = regexp.MustCompile("^`(?:Test|Benchmark|Fuzz)[A-Z_]\\w*`$")
	camelRE    = regexp.MustCompile("^`[a-z][a-z0-9]*[A-Z]\\w*(?:\\(\\))?`$")
)

// packageDecls returns what package pkg's non-test files declare:
// top-level names, "Type.Member" for methods and struct/interface
// members, and "Type." marking each type. nil: pkg is not ours.
func packageDecls(root, pkg string) (map[string]bool, error) {
	dir := filepath.Join(root, "internal", pkg)
	if pkg == "jsontiles" {
		dir = root
	} else if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return nil, nil
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	decls := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		if err := fileDecls(f, decls); err != nil {
			return nil, err
		}
	}
	return decls, nil
}

// fileDecls adds what the Go file f declares to decls, keyed as
// packageDecls describes.
func fileDecls(f string, decls map[string]bool) error {
	file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl: // bodies are skipped: no local names
			name := n.Name.Name
			if n.Recv != nil {
				recv := n.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				name = recv.(*ast.Ident).Name + "." + name
			}
			decls[name] = true
			return false
		case *ast.ValueSpec:
			for _, id := range n.Names {
				decls[id.Name] = true
			}
		case *ast.TypeSpec:
			typ := n.Name.Name
			decls[typ], decls[typ+"."] = true, true
			ast.Inspect(n.Type, func(n ast.Node) bool {
				if f, ok := n.(*ast.Field); ok {
					for _, id := range f.Names {
						decls[typ+"."+id.Name] = true
					}
				}
				return true
			})
			return false
		}
		return true
	})
	return nil
}

// repoNames walks the Go files under root, skipping dot directories:
// names holds every declaration, method and field name of the non-test
// files, tests every function name of the _test.go files.
func repoNames(root string) (names, tests map[string]bool, err error) {
	decls, tests := map[string]bool{}, map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		case !strings.HasSuffix(path, "_test.go"):
			return fileDecls(path, decls)
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				tests[fn.Name.Name] = true
			}
		}
		return nil
	})
	names = map[string]bool{}
	for d := range decls {
		names[d[strings.LastIndex(d, ".")+1:]] = true
	}
	return names, tests, err
}

var (
	// jtbenchRE matches a jtbench command line: flags with their
	// values, then the experiment ids (group 1).
	jtbenchRE = regexp.MustCompile(`jtbench(?:[ \t]+-[\w-]+(?:[ \t]+[\d.:]+)?)*((?:[ \t]+[a-z][a-z0-9]*\b)+)`)
	fenceRE   = regexp.MustCompile("(?s)```.*?```")
	spanRE    = regexp.MustCompile("`[^`]+`") // may wrap lines, unlike codeSpanRE
)

// codeText returns a markdown document's code: every fenced block and
// every inline code span, the latter joined onto one line.
func codeText(doc string) []string {
	code := fenceRE.FindAllString(doc, -1)
	for _, span := range spanRE.FindAllString(fenceRE.ReplaceAllString(doc, ""), -1) {
		code = append(code, strings.ReplaceAll(span, "\n", " "))
	}
	return code
}

// pathRE matches a span that may cite a repository path: slash-
// separated names (group 1), a trailing slash and a `:line` optional.
var pathRE = regexp.MustCompile(`^([\w.-]+(?:/[\w.-]+)*)/?(?::\d[\d, –-]*)?$`)

// missingPath reports whether span cites a missing path (rule 4): a
// known file type or a path under a top-level directory, found from
// the root, from internal/, or for a bare name among the repo's files.
func missingPath(root string, files map[string]bool, span string) bool {
	m := pathRE.FindStringSubmatch(strings.TrimSuffix(strings.Trim(span, "`"), "/..."))
	if m == nil {
		return false
	}
	first, _, nested := strings.Cut(m[1], "/")
	fi, err := os.Stat(filepath.Join(root, first))
	ext := filepath.Ext(m[1])
	if (ext == "" || !strings.Contains(".go.md.json.txt.sh.yml.", ext+".")) && (!nested || err != nil || !fi.IsDir()) {
		return false // neither a known file type nor under a top-level directory
	}
	for _, dir := range []string{root, filepath.Join(root, "internal")} {
		if _, err := os.Stat(filepath.Join(dir, m[1])); err == nil {
			return false
		}
	}
	return nested || !files[m[1]]
}

// entryRE matches a CHANGES.md entry; group 1 is its PR number.
var entryRE = regexp.MustCompile(`^- PR (\d+):`)

// The CHANGES.md entry budget (rule 5) and the first PR it holds.
const (
	entryBudget     = 1500
	firstBudgetedPR = 48
)

// The byte sizes DESIGN.md and README.md may not grow past (rule 6).
var docBudgets = []struct {
	doc   string
	bytes int64
}{{"DESIGN.md", 110530}, {"README.md", 39901}}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "jtdoccheck:", err)
		os.Exit(1)
	}
}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	var problems []string

	// 1. Every obs instrument appears in DESIGN.md §7.
	names, err := obsInstruments(filepath.Join(*root, "internal", "obs"))
	check(err)
	design, err := os.ReadFile(filepath.Join(*root, "DESIGN.md"))
	check(err)
	section, err := observabilitySection(design)
	check(err)
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		if !strings.Contains(section, "`"+n+"`") {
			problems = append(problems, fmt.Sprintf(
				"obs %s %q is not documented in DESIGN.md §7 (add a `| `%s` | ... |` row)", names[n], n, n))
		}
	}

	// 2. Every jtbench command in the docs names a real experiment.
	commands := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join(*root, doc))
		check(err)
		for _, code := range codeText(string(text)) {
			for _, m := range jtbenchRE.FindAllStringSubmatch(code, -1) {
				commands++
				for _, id := range strings.Fields(m[1]) {
					if _, ok := bench.ByID(id); !ok && id != "all" {
						problems = append(problems, fmt.Sprintf("%s runs `jtbench %s`, which is not an experiment (see jtbench -list)", doc, id))
					}
				}
			}
		}
	}

	// 3. Docs name only code that exists.
	decls := map[string]map[string]bool{}
	declared, tests, err := repoNames(*root)
	check(err)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(filepath.Join(*root, doc))
		check(err)
		for _, span := range codeSpanRE.FindAllString(string(text), -1) {
			name := strings.TrimSuffix(strings.Trim(span, "`"), "()")
			switch {
			case testNameRE.MatchString(span) && !tests[name]:
				problems = append(problems, fmt.Sprintf("%s names %s, which no _test.go file declares", doc, span))
			case camelRE.MatchString(span) && !declared[name]:
				problems = append(problems, fmt.Sprintf("%s names %s, which no non-test .go file declares", doc, span))
			}
			for _, m := range qualRE.FindAllStringSubmatch(span, -1) {
				pkg, name := m[1], m[2]
				d, seen := decls[pkg]
				if !seen {
					d, err = packageDecls(*root, pkg)
					check(err)
					decls[pkg] = d
				}
				if m[3] != "" && d[name+"."] {
					name += "." + m[3]
				}
				if d != nil && !d[name] {
					problems = append(problems, fmt.Sprintf("%s names `%s.%s`, which package %s does not declare", doc, pkg, name, pkg))
				}
			}
		}
	}

	// 4. Docs cite only files that exist.
	files := map[string]bool{}
	check(filepath.WalkDir(*root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != *root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		} else if err == nil {
			files[d.Name()] = true
		}
		return err
	}))
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join(*root, doc))
		check(err)
		for _, span := range codeSpanRE.FindAllString(fenceRE.ReplaceAllString(string(text), ""), -1) {
			if missingPath(*root, files, span) {
				problems = append(problems, fmt.Sprintf("%s cites %s, which does not exist", doc, span))
			}
		}
	}

	// 5. New CHANGES.md entries keep to their budget.
	changes, err := os.ReadFile(filepath.Join(*root, "CHANGES.md"))
	check(err)
	for _, line := range strings.Split(string(changes), "\n") {
		m := entryRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if pr, _ := strconv.Atoi(m[1]); pr >= firstBudgetedPR && len(line) > entryBudget {
			problems = append(problems, fmt.Sprintf("CHANGES.md's PR %d entry is %d bytes, over its %d-byte budget: move measurements to results/PR-%d.md", pr, len(line), entryBudget, pr))
		}
	}

	// 6. The documents do not grow.
	for _, b := range docBudgets {
		fi, err := os.Stat(filepath.Join(*root, b.doc))
		check(err)
		if fi.Size() > b.bytes {
			problems = append(problems, fmt.Sprintf("%s is %d bytes, over its %d-byte budget: cut as much as the change adds", b.doc, fi.Size(), b.bytes))
		}
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "jtdoccheck:", p)
		}
		fmt.Fprintf(os.Stderr, "jtdoccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("jtdoccheck: %d instruments documented, %d jtbench commands checked\n",
		len(names), commands)
}
