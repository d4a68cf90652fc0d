// Command drange-vet runs the repo's custom analyzers (lockcheck, noalloc,
// entropyflow, packedpath, seedtaint, atomiccheck) over Go packages.
//
// Standalone mode loads packages itself via the go command:
//
//	drange-vet ./...
//
// It also speaks the go vet vettool protocol, so the same binary works as
//
//	go build -o /tmp/drange-vet ./cmd/drange-vet
//	go vet -vettool=/tmp/drange-vet ./...
//
// In vettool mode the go command hands the tool a JSON .cfg file per
// package, with file lists and export-data locations; diagnostics go to
// stderr and a non-zero exit marks the package as failing vet.
//
// The interprocedural analyzers (seedtaint, atomiccheck) exchange facts
// between packages. Under the vet driver the serialized facts ride in the
// .vetx file the protocol already caches per package: a VetxOnly invocation
// type-checks the dependency and computes facts without reporting, a full
// invocation reads the dependencies' facts from PackageVetx and writes its
// own to VetxOutput. Fact computation is best-effort — a package that fails
// to type-check in VetxOnly mode yields empty facts (analyses degrade to
// unknown-callee conservatism) rather than failing the build. Standalone
// mode threads the same facts in memory, in dependency order.
//
// Exit status: 0 clean, 1 tool error, 2 diagnostics reported.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/atomiccheck"
	"repro/internal/analysis/entropyflow"
	"repro/internal/analysis/lockcheck"
	"repro/internal/analysis/noalloc"
	"repro/internal/analysis/packedpath"
	"repro/internal/analysis/seedtaint"
)

var analyzers = []*analysis.Analyzer{
	lockcheck.Analyzer,
	noalloc.Analyzer,
	entropyflow.Analyzer,
	packedpath.Analyzer,
	seedtaint.Analyzer,
	atomiccheck.Analyzer,
}

func main() {
	args := os.Args[1:]

	// vettool protocol: version and flag discovery.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			fmt.Printf("drange-vet version %s\n", selfID())
			return
		}
		if a == "-flags" || a == "--flags" {
			fmt.Println("[]")
			return
		}
	}

	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}

	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: drange-vet <packages>")
		os.Exit(1)
	}
	findings, err := analysis.Run("", args, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "drange-vet:", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(2)
	}
}

// selfID hashes the executable so the go command's vet result cache is
// invalidated when the tool changes.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "devel"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "devel"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "devel"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// vetConfig mirrors the JSON the go command writes for vet tools.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "drange-vet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "drange-vet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The go command expects a facts file regardless of whether the package
	// contributed facts.
	writeVetx := func(payload []byte) {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, payload, 0o666); err != nil {
				fmt.Fprintln(os.Stderr, "drange-vet:", err)
			}
		}
	}
	if cfg.VetxOnly && (cfg.Standard[cfg.ImportPath] || len(cfg.GoFiles) == 0) {
		// Stdlib dependency: the policy packages all live in this module, so
		// no facts are lost by skipping it, and stdlib (cgo, asm) does not
		// reliably type-check under the trimmed importer below.
		writeVetx(nil)
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.VetxOnly || cfg.SucceedOnTypecheckFailure {
				writeVetx(nil)
				return 0
			}
			fmt.Fprintln(os.Stderr, "drange-vet:", err)
			return 1
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg, err := analysis.CheckFiles(fset, cfg.ImportPath, files, imp)
	if err != nil {
		if cfg.VetxOnly || cfg.SucceedOnTypecheckFailure {
			writeVetx(nil)
			return 0
		}
		fmt.Fprintln(os.Stderr, "drange-vet:", err)
		return 1
	}

	// Thread dependency facts out of the .vetx files the go command already
	// computed for this package's deps, and collect our own for VetxOutput.
	facts := loadDepFacts(cfg)
	findings, err := analysis.RunPackageFacts(pkg, analyzers, facts, cfg.VetxOnly)
	if err != nil {
		if cfg.VetxOnly {
			writeVetx(nil)
			return 0
		}
		fmt.Fprintln(os.Stderr, "drange-vet:", err)
		return 1
	}
	payload, err := analysis.EncodeFacts(facts[cfg.ImportPath])
	if err != nil {
		fmt.Fprintln(os.Stderr, "drange-vet:", err)
		return 1
	}
	writeVetx(payload)
	if cfg.VetxOnly {
		return 0
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// loadDepFacts reads every dependency .vetx named by the config into a
// FactBase. Empty and malformed files are skipped: facts are an accuracy
// optimization, never a hard requirement.
func loadDepFacts(cfg vetConfig) analysis.FactBase {
	facts := make(analysis.FactBase)
	for path, file := range cfg.PackageVetx {
		data, err := os.ReadFile(file)
		if err != nil || len(data) == 0 {
			continue
		}
		m, err := analysis.DecodeFacts(data)
		if err != nil {
			continue
		}
		for name, payload := range m {
			facts.Set(path, name, payload)
		}
	}
	return facts
}
