package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// A Finding is a Diagnostic resolved to a printable position.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position, f.Analyzer, f.Message)
}

// RunPackage applies the analyzers to one loaded package and returns the
// findings, sorted by position. No facts are threaded: interprocedural
// analyzers degrade to per-package results. Use Run (or RunPackageFacts) for
// cross-package precision.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	return RunPackageFacts(pkg, analyzers, nil, false)
}

// RunPackageFacts applies the analyzers to one loaded package with facts
// threaded through the given FactBase: each analyzer reads the facts its
// earlier runs recorded for the package's dependencies and records this
// package's facts for dependents. With factsOnly set, diagnostics are not
// wanted (the package is a dependency, not under analysis); facts are still
// recorded.
func RunPackageFacts(pkg *Package, analyzers []*Analyzer, facts FactBase, factsOnly bool) ([]Finding, error) {
	var out []Finding
	path := pkg.Types.Path()
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			FactsOnly: factsOnly,
		}
		if facts != nil {
			name := a.Name
			pass.ImportFacts = func(importPath string) []byte { return facts.Get(importPath, name) }
			pass.ExportFacts = func(payload []byte) { facts.Set(path, name, payload) }
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, path, err)
		}
		if factsOnly {
			continue
		}
		for _, d := range pass.Diagnostics() {
			out = append(out, Finding{
				Position: pkg.Fset.Position(d.Pos),
				Analyzer: a.Name,
				Message:  d.Message,
			})
		}
	}
	sortFindings(out)
	return out, nil
}

// Run loads the packages matching the patterns (relative to dir) and applies
// every analyzer to each, returning all findings sorted by position. The
// packages' non-stdlib dependencies are analyzed first in dependency order,
// facts only, so interprocedural analyzers see cross-package summaries just
// as they do under the vet driver.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	l := NewLoader(dir)
	pkgs, err := l.LoadAll(patterns...)
	if err != nil {
		return nil, err
	}
	facts := make(FactBase)
	var out []Finding
	for _, pkg := range pkgs {
		fs, err := RunPackageFacts(pkg.Package, analyzers, facts, !pkg.Root)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	sortFindings(out)
	return out, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
