package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/atomiccheck"
	"repro/internal/analysis/entropyflow"
	"repro/internal/analysis/lockcheck"
	"repro/internal/analysis/noalloc"
	"repro/internal/analysis/packedpath"
	"repro/internal/analysis/seedtaint"
)

var repoAnalyzers = []*analysis.Analyzer{
	lockcheck.Analyzer,
	noalloc.Analyzer,
	entropyflow.Analyzer,
	packedpath.Analyzer,
	seedtaint.Analyzer,
	atomiccheck.Analyzer,
}

// repoRoot is the module root relative to this package's directory.
const repoRoot = "../.."

// TestRepoIsClean runs every drange-vet analyzer over the whole module and
// fails on any finding. This is the same sweep CI runs through the vet tool;
// having it in the test suite means `go test ./...` alone catches an invariant
// regression.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short mode")
	}
	findings, err := analysis.Run(repoRoot, []string{"./..."}, repoAnalyzers)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// requiredFieldGuards lists guarded-field annotations that must never be
// dropped: each entry pins a (file, field, mutex) triple that the concurrency
// design depends on. If a refactor removes one, this test — and with it CI —
// goes red, rather than lockcheck silently losing its subject.
var requiredFieldGuards = []struct {
	file  string // path relative to the repo root
	field string
	mu    string
}{
	{"drange/serving.go", "reason", "mu"},
	{"drange/serving.go", "cur", "mu"},
	{"drange/serving.go", "curBits", "mu"},
	{"drange/serving.go", "readEpoch", "mu"},
	{"drange/serving.go", "blockCause", "mu"},
	{"drange/serving.go", "drbg", "mu"},
	{"drange/serving.go", "monitor", "mu"},
	{"drange/serving.go", "pendingDRBG", "mu"},
	{"drange/serving.go", "readmissions", "mu"},
	{"drange/serving.go", "recharacterizations", "mu"},
	{"drange/serving.go", "recharFailures", "mu"},
	{"drange/serving.go", "lastRecharMS", "mu"},
	{"drange/serving.go", "recharAttempts", "mu"},
	{"drange/replay.go", "err", "mu"},
	{"drange/replay.go", "cursor", "mu"},
	{"internal/core/engine.go", "shardErr", "errMu"},
	{"internal/core/engine.go", "delivered", "mu"},
	{"internal/dram/device.go", "banks", "mu"},
	{"internal/dram/device.go", "stats", "mu"},
}

// requiredNoalloc lists the functions the paper's serving path promises are
// allocation-free (or allocation-amortized); dropping the annotation would
// stop noalloc from watching them.
var requiredNoalloc = []struct {
	file string
	fn   string // function or method name
}{
	{"drange/serving.go", "readFast"},
	{"drange/serving.go", "pickMember"},
	{"drange/serving.go", "writeBits"},
	{"drange/serving.go", "drbgReadLocked"},
	{"drange/serving.go", "reseedMemberLocked"},
	{"drange/serving.go", "commitPendingDRBGLocked"},
	{"drange/serving.go", "dropPendingDRBGLocked"},
	{"internal/drbg/chacha.go", "Generate"},
	{"internal/drbg/chacha.go", "chachaBlock"},
	{"internal/core/engine.go", "ReadPacked"},
	{"internal/core/trng.go", "ReadPacked"},
	{"internal/core/bitbuf.go", "PopPacked"},
	{"internal/memctrl/controller.go", "ReadWordInto"},
	{"internal/health/health.go", "IngestPacked"},
	{"internal/postproc/packed.go", "AppendPacked"},
	{"internal/postproc/packed.go", "Drop"},
	{"drange/source.go", "feed"},
	{"drange/source.go", "fill"},
	{"drange/source.go", "readPacked"},
}

// TestRequiredAnnotationsPresent re-parses the annotated files and asserts the
// inventory above still exists. A dropped annotation is invisible to the
// analyzers themselves (no annotation, nothing to check), so the inventory is
// what makes removal loud.
func TestRequiredAnnotationsPresent(t *testing.T) {
	files := map[string]*ast.File{}
	fset := token.NewFileSet()
	parse := func(rel string) *ast.File {
		if f, ok := files[rel]; ok {
			return f
		}
		f, err := parser.ParseFile(fset, filepath.Join(repoRoot, rel), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", rel, err)
		}
		files[rel] = f
		return f
	}

	for _, want := range requiredFieldGuards {
		f := parse(want.file)
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if name.Name != want.field {
						continue
					}
					for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
						for _, d := range analysis.Directives(cg) {
							if d.Name == "guardedby" && len(d.Args) > 0 && d.Args[0] == want.mu {
								found = true
							}
						}
					}
				}
			}
			return true
		})
		if !found {
			t.Errorf("%s: field %s lost its // drange:guardedby %s annotation", want.file, want.field, want.mu)
		}
	}

	for _, want := range requiredNoalloc {
		f := parse(want.file)
		found := false
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != want.fn {
				continue
			}
			if analysis.FuncDirective(fd, "noalloc") != nil {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: function %s lost its //drange:noalloc annotation", want.file, want.fn)
		}
	}

	// The entropyflow waiver is a privilege: exactly one file (the
	// math/rand adapter) may hold it. A second waiver means someone routed
	// pseudo-randomness near the entropy path and silenced the analyzer
	// instead of fixing it.
	waivers := []string{}
	for _, rel := range []string{"drange/source.go", "drange/drange.go", "drange/pool.go", "drange/serving.go", "drange/replay.go", "drange/health.go"} {
		if analysis.FileDirective(parse(rel), "entropyflow-exempt") != nil {
			waivers = append(waivers, rel)
		}
	}
	if len(waivers) != 1 || waivers[0] != "drange/source.go" {
		t.Errorf("entropyflow-exempt waivers = %v, want exactly [drange/source.go]", waivers)
	}
}

// requiredAtomicFields is the exact module-wide //drange:atomic inventory:
// every lock-free counter and flag the concurrency design depends on.
// TestAtomicInventoryPinned compares as a set, so both a dropped annotation
// and a new one added without updating this table go red — the latter forces
// the author to decide deliberately that the field belongs to the atomic
// discipline.
var requiredAtomicFields = []string{
	"drange/faulty.go:faultyDevice.reads",
	"drange/serving.go:servingMember.state",
	"drange/serving.go:servingMember.fastEng",
	"drange/serving.go:servingMember.fetched",
	"drange/serving.go:servingMember.delivered",
	"drange/serving.go:servingMember.win",
	"drange/serving.go:servingCore.remainder",
	"drange/serving.go:servingCore.tierRawReads",
	"drange/serving.go:servingCore.tierRawBytes",
	"drange/serving.go:servingCore.tierDRBGReads",
	"drange/serving.go:servingCore.tierDRBGBytes",
	"drange/serving.go:servingCore.delivered",
	"drange/serving.go:servingCore.closed",
	"internal/core/engine.go:engineShard.bitsHarvested",
	"internal/core/engine.go:engineShard.simCycles",
	"internal/drbg/ledger.go:Ledger.credited",
	"internal/drbg/ledger.go:Ledger.debited",
}

// requiredSeedtaintWaivers is the exact //drange:seedtaint-exempt inventory:
// only the documented raw tier — the serving core's ReadRaw, shared by
// Generator and Pool — may bypass the health monitor. Any second waiver means
// someone silenced seedtaint instead of routing entropy through
// health.Monitor.
var requiredSeedtaintWaivers = []string{
	"drange/serving.go:ReadRaw",
}

// walkModuleFiles parses every non-test, non-testdata .go file in the module
// and hands it to visit with its repo-relative path.
func walkModuleFiles(t *testing.T, visit func(rel string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(repoRoot, path)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(rel), f)
		return nil
	})
	if err != nil {
		t.Fatalf("walking module: %v", err)
	}
}

// TestAtomicInventoryPinned asserts the module-wide set of //drange:atomic
// fields is exactly requiredAtomicFields.
func TestAtomicInventoryPinned(t *testing.T) {
	got := map[string]bool{}
	walkModuleFiles(t, func(rel string, f *ast.File) {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					annotated := false
					for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
						for _, d := range analysis.Directives(cg) {
							if d.Name == "atomic" {
								annotated = true
							}
						}
					}
					if !annotated {
						continue
					}
					for _, name := range fld.Names {
						got[rel+":"+ts.Name.Name+"."+name.Name] = true
					}
				}
			}
		}
	})
	want := map[string]bool{}
	for _, k := range requiredAtomicFields {
		want[k] = true
		if !got[k] {
			t.Errorf("%s lost its // drange:atomic annotation", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected // drange:atomic on %s: add it to requiredAtomicFields if intentional", k)
		}
	}
}

// TestSeedtaintWaiverInventoryPinned asserts the module-wide set of
// //drange:seedtaint-exempt holders is exactly the two documented raw tiers.
func TestSeedtaintWaiverInventoryPinned(t *testing.T) {
	got := map[string]bool{}
	walkModuleFiles(t, func(rel string, f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if analysis.FuncDirective(fd, "seedtaint-exempt") != nil {
				got[rel+":"+fd.Name.Name] = true
			}
		}
	})
	want := map[string]bool{}
	for _, k := range requiredSeedtaintWaivers {
		want[k] = true
		if !got[k] {
			t.Errorf("%s lost its //drange:seedtaint-exempt waiver", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected //drange:seedtaint-exempt on %s: the documented raw tiers are the only sanctioned holders", k)
		}
	}
}
