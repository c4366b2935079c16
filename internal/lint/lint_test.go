package lint

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const fixturePrefix = "cadb/internal/lint/testdata/src/"

// loadFixture loads one fixture package through the real module loader, so
// fixtures type-check against the actual module packages they import.
func loadFixture(t *testing.T, name string) (*Module, *Package) {
	t.Helper()
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	pkg, err := mod.LoadDir(filepath.Join("testdata", "src", name), fixturePrefix+name)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	return mod, pkg
}

// A want is a golden expectation parsed from a `// want "regex"` comment:
// exactly one finding on that line whose message matches the regex.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

func wantsIn(t *testing.T, mod *Module, pkg *Package) []*want {
	t.Helper()
	var out []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := mod.Fset.Position(c.Pos())
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want regex %q: %v", pos, m[1], err)
				}
				out = append(out, &want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return out
}

// checkFixture runs the configured checks over one fixture package and
// asserts a bijection between findings and want comments.
func checkFixture(t *testing.T, name string, cfg Config) {
	t.Helper()
	mod, pkg := loadFixture(t, name)
	findings, err := RunPackages(&cfg, mod, []*Package{pkg})
	if err != nil {
		t.Fatalf("RunPackages: %v", err)
	}
	wants := wantsIn(t, mod, pkg)
	for _, f := range findings {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == f.File && w.line == f.Line && w.re.MatchString(f.Message) {
				w.matched, ok = true, true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestMapOrderFixture(t *testing.T) {
	checkFixture(t, "maporder", Config{
		Checks:          []string{"maporder"},
		DeterminismPkgs: []string{fixturePrefix + "maporder"},
	})
}

func TestReleaseFixture(t *testing.T) {
	checkFixture(t, "release", Config{Checks: []string{"release"}})
}

func TestFloatOrderFixture(t *testing.T) {
	checkFixture(t, "floatorder", Config{Checks: []string{"floatorder"}})
}

func TestIOAccountFixture(t *testing.T) {
	checkFixture(t, "ioaccount", Config{
		Checks:        []string{"ioaccount"},
		IOChokepoints: []string{fixturePrefix + "ioaccount.allowedChokepoint"},
	})
}

func TestCloseCheckFixture(t *testing.T) {
	checkFixture(t, "closecheck", Config{Checks: []string{"closecheck"}})
}

// TestDirectives covers the suppression machinery end to end: malformed
// directives are findings themselves, a well-formed directive suppresses
// the finding on the line below it, and an identical unsuppressed site
// still reports.
func TestDirectives(t *testing.T) {
	mod, pkg := loadFixture(t, "directive")
	cfg := Config{Checks: []string{"closecheck"}}
	findings, err := RunPackages(&cfg, mod, []*Package{pkg})
	if err != nil {
		t.Fatalf("RunPackages: %v", err)
	}
	var directive, close_ []Finding
	for _, f := range findings {
		switch f.Check {
		case "directive":
			directive = append(directive, f)
		case "closecheck":
			close_ = append(close_, f)
		default:
			t.Errorf("unexpected check %s: %s", f.Check, f)
		}
	}
	wantMsgs := []string{
		"names no check",
		"unknown check nosuchcheck",
		"has no reason",
	}
	if len(directive) != len(wantMsgs) {
		t.Fatalf("directive findings = %d, want %d: %v", len(directive), len(wantMsgs), directive)
	}
	for i, sub := range wantMsgs {
		if !strings.Contains(directive[i].Message, sub) {
			t.Errorf("directive finding %d = %q, want substring %q", i, directive[i].Message, sub)
		}
	}
	if len(close_) != 1 {
		t.Fatalf("closecheck findings = %d, want exactly 1 (the unsuppressed site): %v", len(close_), close_)
	}
	inUnsuppressed := false
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "unsuppressed" {
				return true
			}
			pos, end := mod.Fset.Position(fd.Pos()), mod.Fset.Position(fd.End())
			if close_[0].Line > pos.Line && close_[0].Line < end.Line {
				inUnsuppressed = true
			}
			return false
		})
	}
	if !inUnsuppressed {
		t.Errorf("surviving closecheck finding not in func unsuppressed: %s", close_[0])
	}
}

// TestRealModuleClean is the smoke test the CI lint gate depends on: the
// full suite over the real module must report nothing. A failure here means
// a real invariant violation (fix the code) or a new false positive (fix
// the check).
func TestRealModuleClean(t *testing.T) {
	findings, err := Run(Config{Dir: "."})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("finding on real module: %s", f)
	}
}

// TestDefaultAllowlistsNameRealFuncs keeps the allowlists honest: every
// DefaultIOChokepoints and DefaultFanoutFuncs entry must name a function
// declared in the module, so an entry cannot outlive the code it exempts.
func TestDefaultAllowlistsNameRealFuncs(t *testing.T) {
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	pkgs, err := mod.Packages()
	if err != nil {
		t.Fatalf("Packages: %v", err)
	}
	declared := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					declared[qualifiedFuncName(pkg.ImportPath, fd)] = true
				}
			}
		}
	}
	for _, list := range [][]string{DefaultIOChokepoints, DefaultFanoutFuncs} {
		for _, name := range list {
			if !declared[name] {
				t.Errorf("allowlist entry %s names no function in the module", name)
			}
		}
	}
}
