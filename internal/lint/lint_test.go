package lint

import (
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"testing"
)

// sharedLoader memoizes one Loader across golden tests so the standard
// library is source-typechecked once per test binary.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loader
}

// wantRE extracts the quoted regexps of one `// want "..."` comment.
var wantRE = regexp.MustCompile("// want (`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

// runGolden loads testdata/src/<name>, runs the analyzers over it — the
// package analyzers through Run, the summary-engine ones through
// RunOnProgram on a one-target Program, suppressions included — and
// compares the diagnostics against the `// want` annotations,
// analysistest-style.
func runGolden(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	diags, err := Run(pkg, analyzers)
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	progDiags, err := RunOnProgram(BuildProgram(l, []*Package{pkg}), analyzers)
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	checkWants(t, pkg, append(diags, progDiags...))
}

// checkWants compares diagnostics against the fixture's `// want`
// annotations, analysistest-style.
func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	var err error
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				raw := m[1]
				var pat string
				if raw[0] == '`' {
					pat = raw[1 : len(raw)-1]
				} else {
					pat, err = strconv.Unquote(raw)
					if err != nil {
						t.Fatalf("bad want %s: %v", raw, err)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", pat, err)
				}
				p := pkg.Fset.Position(c.Pos())
				k := key{file: p.Filename, line: p.Line}
				wants[k] = append(wants[k], re)
			}
		}
	}

	matched := make(map[*regexp.Regexp]bool)
	for _, d := range diags {
		k := key{file: d.Pos.Filename, line: d.Pos.Line}
		ok := false
		for _, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched[re] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			if !matched[re] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none",
					filepath.Base(k.file), k.line, re)
			}
		}
	}
}

func TestGuardedByGolden(t *testing.T)   { runGolden(t, "guardedby", GuardedBy) }
func TestGoLeakGolden(t *testing.T)      { runGolden(t, "goleak", GoLeak) }
func TestErrWrapGolden(t *testing.T)     { runGolden(t, "errwrap", ErrWrap) }
func TestSpanPairGolden(t *testing.T)    { runGolden(t, "spanpair", SpanPair) }
func TestNetDeadlineGolden(t *testing.T) { runGolden(t, "netdeadline", NetDeadline) }
func TestLockOrderGolden(t *testing.T)   { runGolden(t, "lockorder", LockOrder) }
func TestHotAllocGolden(t *testing.T)    { runGolden(t, "hotalloc", HotAlloc) }
func TestWireProtoGolden(t *testing.T)   { runGolden(t, "wireproto", WireProto) }

// TestUnusedDirectiveGolden: a directive that silences nothing for an
// analyzer that ran, or that names no analyzer, is a finding; one for an
// analyzer that did not run is not judged.
func TestUnusedDirectiveGolden(t *testing.T) {
	runGolden(t, "ignore", ErrWrap, HotAlloc)
}

// TestAsmBackedSummaries: body-less (assembly-backed) declarations stay in
// the program as AsmBacked leaves with empty fact sets, rather than being
// dropped at the module boundary like stdlib callees.
func TestAsmBackedSummaries(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "hotalloc"))
	if err != nil {
		t.Fatal(err)
	}
	prog := BuildProgram(l, []*Package{pkg})
	found := map[string]*Summary{}
	for _, fi := range prog.FuncsInOrder() {
		if fi.Sum.AsmBacked {
			if fi.Decl.Body != nil {
				t.Errorf("%s marked AsmBacked but has a body", fi.Obj.Name())
			}
			found[fi.Obj.Name()] = fi.Sum
		}
	}
	sum := found["asmAxpy"]
	if sum == nil {
		t.Fatalf("asmAxpy not summarized as AsmBacked; got %v", found)
	}
	if len(sum.Allocs) != 0 || len(sum.Locks) != 0 || len(sum.Calls) != 0 {
		t.Errorf("asmAxpy summary not empty: %+v", sum)
	}
	hot := found["hotAsmKernel"]
	if hot == nil || !hot.Hot {
		t.Fatalf("hotAsmKernel: want AsmBacked summary with Hot=true, got %+v", hot)
	}
}

// TestLookup checks the analyzer registry used by shmlint -run.
func TestLookup(t *testing.T) {
	for _, a := range All {
		if Lookup(a.Name) != a {
			t.Errorf("Lookup(%q) did not return the analyzer", a.Name)
		}
	}
	if Lookup("nope") != nil {
		t.Error("Lookup of unknown name should be nil")
	}
}

// TestExpandPatterns exercises ./... expansion against this module.
func TestExpandPatterns(t *testing.T) {
	l := testLoader(t)
	dirs, err := l.ExpandPatterns([]string{"./internal/lint/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 {
		t.Fatalf("want exactly this package (testdata skipped), got %v", dirs)
	}
	single, err := l.ExpandPatterns([]string{"shmcaffe/internal/smb"})
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || filepath.Base(single[0]) != "smb" {
		t.Fatalf("import-path pattern: got %v", single)
	}
}

// TestDiagnosticString pins the file:line:col output format the driver
// prints and check.sh greps.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "errwrap", Message: "m"}
	d.Pos.Filename = "f.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "f.go:3:7: errwrap: m"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}
