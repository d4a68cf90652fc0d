// Package entropyflow enforces the repo's entropy-custody invariant: no
// path from raw DRAM bits to an exported Read may bypass the memory
// controller (and therefore the health monitor that the serving core drives
// on everything the controller returns).
//
// Two rules:
//
//  1. The entropy-bearing device methods — ReadWord, ReadWordInto, Activate
//     and the fused SampleWord (an ACT and its first READ in one call) as
//     provided by repro/internal/device and repro/internal/dram —
//     may only be referenced from the packages that implement or drive the
//     device (internal/memctrl, internal/profiler, internal/dram,
//     internal/device) and from the drange backend adapter files
//     (backend.go, replay.go, faulty.go), which wrap devices rather than
//     harvest from them. Setup-time geometry reads (ReadRowRaw, StartupRow)
//     are deliberately not banned: they feed characterization, not the
//     serving stream.
//
//  2. math/rand and math/rand/v2 are banned from non-test serving code
//     (package drange and everything under internal/): pseudo-randomness
//     must never be able to stand in for harvested entropy. A file that
//     legitimately touches math/rand — e.g. the adapter exposing a Source
//     as a rand.Source, where entropy flows TO math/rand, not from it —
//     declares why with "//drange:entropyflow-exempt <reason>".
//
// Test files are exempt from both rules.
package entropyflow

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "entropyflow",
	Doc:  "check that raw device entropy reads stay inside the controller layer and math/rand stays out of serving code",
	Run:  run,
}

var bannedMethods = map[string]bool{
	"ReadWord":     true,
	"ReadWordInto": true,
	"Activate":     true,
	"SampleWord":   true,
}

// providerPkgs are the packages whose methods carry raw entropy.
var providerPkgs = []string{"internal/device", "internal/dram"}

// allowedPkgs may touch raw device methods: the device implementations and
// the two layers that legitimately drive them.
var allowedPkgs = []string{"internal/device", "internal/dram", "internal/memctrl", "internal/profiler"}

// allowedDrangeFiles are the backend adapter files in package drange.
var allowedDrangeFiles = map[string]bool{"backend.go": true, "replay.go": true, "faulty.go": true}

func run(pass *analysis.Pass) error {
	pkgPath := pass.Pkg.Path()
	pkgAllowed := false
	for _, p := range allowedPkgs {
		if analysis.PkgPathIs(pkgPath, p) {
			pkgAllowed = true
		}
	}
	serving := strings.Contains(pkgPath, "internal/") || analysis.PkgPathIs(pkgPath, "drange")

	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		exempt := analysis.FileDirective(f, "entropyflow-exempt")
		if exempt != nil && len(exempt.Args) == 0 {
			pass.Reportf(f.Name, "//drange:entropyflow-exempt requires a reason")
		}
		if exempt != nil {
			continue
		}
		base := filepath.Base(pass.Fset.File(f.Pos()).Name())
		fileAllowed := pkgAllowed || (pass.Pkg.Name() == "drange" && allowedDrangeFiles[base])
		if !fileAllowed {
			checkRawReads(pass, f)
		}
		if serving {
			checkMathRand(pass, f)
		}
	}
	return nil
}

func checkRawReads(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || !bannedMethods[fn.Name()] || fn.Pkg() == nil {
			return true
		}
		for _, p := range providerPkgs {
			if analysis.PkgPathIs(fn.Pkg().Path(), p) {
				pass.Reportf(sel.Sel, "raw device read %s.%s outside the controller layer: entropy must flow through memctrl.Controller so the health monitor sees every bit", fn.Pkg().Name(), fn.Name())
				return true
			}
		}
		return true
	})
}

func checkMathRand(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path == "math/rand" || path == "math/rand/v2" {
			pass.Reportf(imp, "import of %s in serving code: pseudo-randomness must not reach the entropy path (waive with //drange:entropyflow-exempt <reason> if entropy only flows out)", path)
		}
	}
}
