// Package seedtaint implements the drange-vet analyzer that proves the
// paper's two-tier entropy invariant interprocedurally: no raw DRAM read may
// reach a DRBG seed, a post-processing chain input, or a caller-visible
// Source.Read/ReadBits/Uint64 result without first streaming through
// health.Monitor.
//
// The analyzer instantiates the shared taint engine (internal/analysis,
// taint.go) with the repo's policy:
//
//   - Sources: Device/Controller read methods — ReadWord, ReadWordInto,
//     ReadRowRaw, StartupRow, the fused SampleWord and the controller's
//     SamplePhase — in internal/device, internal/dram and internal/memctrl.
//     Their results and output buffers carry taint. SamplePhase is named
//     because its reads land in the Dst buffers of the ops the caller
//     passes, which the summary of its SampleWord calls cannot carry: field
//     taint stays in the package that stores it.
//   - Cleanser: health.Monitor.Ingest and IngestPacked. Ingestion is the
//     only operation that clears taint; the monitored buffer is strongly
//     cleansed.
//   - Sinks: drbg.DRBG.Reseed entropy, Generate additional input, the
//     NewCTR/NewChaCha instantiation seed, and the post-processing chain
//     inputs (postproc Process/ProcessPacked/AppendPacked/PackBits) — plus
//     the success exits of Source.Read/ReadBits/Uint64 implementations in
//     the drange package.
//   - Raw tier: branches taken only when no monitor is configured
//     (`m.monitor == nil` guards) are the documented raw tier and do not
//     taint.
//
// Per-function summaries are exported as facts, so taint introduced in
// internal/memctrl is still visible when the drange package is analyzed —
// deleting the IngestPacked call from a DRBG reseed path is reported even
// though the raw read happens two packages away.
//
// # Waiver
//
// A function may carry
//
//	//drange:seedtaint-exempt <reason>
//
// to opt out: the documented-raw ReadRaw tier is the only sanctioned holder.
// The directive requires a reason, and the analyzer rejects it on any
// function not named ReadRaw. internal/analysis/invariants_test.go
// additionally pins the exact waiver inventory.
package seedtaint

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the seedtaint analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "seedtaint",
	Doc:  "report raw device entropy reaching DRBG seeds, postprocess inputs or Source results without health.Monitor ingestion",
	Run:  run,
}

// sourceMethods are the provider-layer reads whose outputs are raw entropy.
var sourceMethods = map[string]bool{
	"ReadWord":     true,
	"ReadWordInto": true,
	"ReadRowRaw":   true,
	"StartupRow":   true,
	"SampleWord":   true,
	"SamplePhase":  true,
}

var sourcePkgs = []string{"internal/device", "internal/dram", "internal/memctrl"}

// exitSinkMethods are the Source interface methods whose results must be
// monitored entropy. ReadRaw is in the set even though it is the documented
// raw tier: its implementations carry the //drange:seedtaint-exempt waiver,
// so deleting the waiver (or adding an unsanctioned raw delivery path) is a
// diagnostic rather than silence.
var exitSinkMethods = map[string]bool{
	"Read":     true,
	"ReadBits": true,
	"ReadRaw":  true,
	"Uint64":   true,
}

func pkgIs(fn *types.Func, suffixes ...string) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	for _, s := range suffixes {
		if analysis.PkgPathIs(pkg.Path(), s) {
			return true
		}
	}
	return false
}

func recvTypeName(fn *types.Func) string {
	r := fn.Signature().Recv()
	if r == nil {
		return ""
	}
	t := r.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// paramSinks returns the canonical indices of every parameter (receiver
// excluded) of fn — used for sinks that reject taint in any argument.
func paramSinks(fn *types.Func) []int {
	n := fn.Signature().Params().Len()
	off := 0
	if fn.Signature().Recv() != nil {
		off = 1
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i + off
	}
	return out
}

func run(pass *analysis.Pass) error {
	inHealth := analysis.PkgPathIs(pass.Pkg.Path(), "internal/health")
	inPostproc := analysis.PkgPathIs(pass.Pkg.Path(), "internal/postproc")

	// Pre-scan waivers: collect them, and police the grammar — a reason is
	// mandatory, and only the documented-raw ReadRaw tier may hold one.
	waived := map[*types.Func]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			d := analysis.FuncDirective(fd, "seedtaint-exempt")
			if d == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				waived[fn] = true
			}
			if analysis.IsTestFile(pass.Fset, fd.Pos()) {
				continue
			}
			if len(d.Args) == 0 {
				pass.Report(analysis.Diagnostic{
					Pos: fd.Name.Pos(), End: fd.Name.End(),
					Message: "//drange:seedtaint-exempt requires a reason",
				})
			}
			if fd.Name.Name != "ReadRaw" {
				pass.Report(analysis.Diagnostic{
					Pos: fd.Name.Pos(), End: fd.Name.End(),
					Message: "//drange:seedtaint-exempt may only waive ReadRaw (the documented raw tier); fix the flow instead",
				})
			}
		}
	}

	cfg := &analysis.TaintConfig{
		Effect: func(fn *types.Func) (analysis.CallEffect, bool) {
			name := fn.Name()
			switch {
			case sourceMethods[name] && pkgIs(fn, sourcePkgs...):
				return analysis.CallEffect{IsSource: true}, true
			case (name == "Ingest" || name == "IngestPacked") &&
				pkgIs(fn, "internal/health") && recvTypeName(fn) == "Monitor":
				return analysis.CallEffect{CleanseArgs: []int{1}, CleanResults: true}, true
			case name == "Reseed" && pkgIs(fn, "internal/drbg") && fn.Signature().Recv() != nil:
				return analysis.CallEffect{
					SinkArgs: []int{1, 2},
					SinkDesc: "DRBG reseed material",
				}, true
			case name == "Generate" && pkgIs(fn, "internal/drbg") && fn.Signature().Recv() != nil:
				return analysis.CallEffect{
					CleanseArgs:  []int{1}, // the output buffer is DRBG output
					SinkArgs:     []int{2},
					SinkDesc:     "DRBG additional input",
					CleanResults: true,
				}, true
			case (name == "NewCTR" || name == "NewChaCha") && pkgIs(fn, "internal/drbg"):
				return analysis.CallEffect{
					SinkArgs:     []int{0, 1},
					SinkDesc:     "the DRBG instantiation seed",
					CleanResults: true,
				}, true
			case (name == "Process" || name == "ProcessPacked" || name == "AppendPacked" || name == "PackBits") &&
				pkgIs(fn, "internal/postproc") && !inHealth && !inPostproc:
				// The health monitor itself packages raw bits for its tests,
				// and postproc's own internals shuffle Packed values freely;
				// everywhere else the chain input must be monitored.
				return analysis.CallEffect{
					SinkArgs: paramSinks(fn),
					SinkDesc: "the post-processing chain input",
				}, true
			}
			return analysis.CallEffect{}, false
		},
		ExitSink: func(fn *types.Func, decl *ast.FuncDecl) string {
			if !exitSinkMethods[fn.Name()] || !fn.Exported() {
				return ""
			}
			if !analysis.PkgPathIs(pass.Pkg.Path(), "drange") {
				return ""
			}
			recv := recvTypeName(fn)
			if recv == "" {
				return ""
			}
			return recv + "." + fn.Name()
		},
		RawGuard: func(info *types.Info, e ast.Expr) bool {
			t := info.TypeOf(e)
			p, ok := t.(*types.Pointer)
			if !ok {
				return false
			}
			n, ok := p.Elem().(*types.Named)
			if !ok || n.Obj().Name() != "Monitor" || n.Obj().Pkg() == nil {
				return false
			}
			return analysis.PkgPathIs(n.Obj().Pkg().Path(), "internal/health")
		},
		Waived: func(fn *types.Func, decl *ast.FuncDecl) bool {
			return waived[fn]
		},
	}

	ta := analysis.RunTaint(pass, cfg)
	if pass.ExportFacts != nil {
		payload, err := ta.EncodeSummaries()
		if err != nil {
			return err
		}
		pass.ExportFacts(payload)
	}
	return nil
}
