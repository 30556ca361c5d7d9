package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Metric-name lint: every scaleshift_* metric registered anywhere in
// the repo must follow the house conventions, checked at the source
// level so a bad name fails `go test` (and therefore make check and
// CI) before it ever reaches a dashboard:
//
//   - snake_case: ^[a-z][a-z0-9_]*$
//   - counters end in _total; nothing else does
//   - histograms end in _seconds, _bytes, or _per_query (the last is
//     the repo's suffix for dimensionless per-query distributions)
//   - DurationHistogram names end in _seconds specifically
//
// and the verification ledger's counters must all be registered: a
// dashboard reads candidates = false alarms + cost-rejected + matches,
// and exact checks against candidates, from these names — as must the
// two gauges that size the index, in the paper's pages and in bytes.

var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

func TestMetricNameLint(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	type site struct {
		pos  string
		kind string // Counter | Gauge | Histogram | DurationHistogram
		name string
	}
	var sites []site

	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if base == "testdata" || base == ".git" || base == "results" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "lint_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind := sel.Sel.Name
			switch kind {
			case "Counter", "Gauge", "Histogram", "DurationHistogram":
			default:
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil || !strings.HasPrefix(name, "scaleshift_") {
				return true
			}
			sites = append(sites, site{pos: fset.Position(call.Pos()).String(), kind: kind, name: name})
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) < 10 {
		t.Fatalf("lint found only %d scaleshift_* registration sites — scanner is broken", len(sites))
	}

	registered := map[string]bool{}
	for _, s := range sites {
		registered[s.name] = true
	}
	for _, name := range []string{
		"scaleshift_candidates_total", "scaleshift_false_alarms_total", "scaleshift_cost_rejected_total",
		"scaleshift_matches_total", "scaleshift_exact_checks_total",
		"scaleshift_index_pages", "scaleshift_index_bytes",
	} {
		if !registered[name] {
			t.Errorf("metric %q is not registered anywhere", name)
		}
	}

	for _, s := range sites {
		if !metricNameRe.MatchString(s.name) {
			t.Errorf("%s: metric %q is not snake_case", s.pos, s.name)
		}
		isTotal := strings.HasSuffix(s.name, "_total")
		switch s.kind {
		case "Counter":
			if !isTotal {
				t.Errorf("%s: counter %q must end in _total", s.pos, s.name)
			}
		default:
			if isTotal {
				t.Errorf("%s: %s %q must not end in _total (reserved for counters)", s.pos, strings.ToLower(s.kind), s.name)
			}
		}
		switch s.kind {
		case "Histogram":
			if !strings.HasSuffix(s.name, "_seconds") && !strings.HasSuffix(s.name, "_bytes") &&
				!strings.HasSuffix(s.name, "_per_query") {
				t.Errorf("%s: histogram %q must end in _seconds, _bytes, or _per_query", s.pos, s.name)
			}
		case "DurationHistogram":
			if !strings.HasSuffix(s.name, "_seconds") {
				t.Errorf("%s: duration histogram %q must end in _seconds", s.pos, s.name)
			}
		}
	}
}

// moduleRoot walks up from the package directory to the go.mod.
func moduleRoot(t *testing.T) string {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the obs package")
		}
		dir = parent
	}
}
