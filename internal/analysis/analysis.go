// Package analysis implements the ftss-lint analyzer suite: static
// checks that enforce the repo's determinism contract (DESIGN.md §4,
// "the determinism contract"), its concurrency protocols (§11), and
// the paper's protocol invariants at every configuration — not just
// the seeds the dynamic tests happen to sweep. One unseeded rand.Intn,
// one time.Now, or one unsorted map iteration feeding a rendered table
// silently breaks reproducibility of the E1–E15 experiment output; one
// field read outside its mutex is a data race no sampled -race seed
// reliably catches. This package catches both classes at analysis time.
//
// Strictness is per package, in two tiers. Every internal/... package
// declares exactly one tier in a file header (written //-style with no
// space, like //go:build, conventionally the last line of the package
// doc comment):
//
//   - "ftss:det" — the deterministic core. The determinism analyzers
//     run: nowallclock, seededrand, maporder, nogoroutine, clonealias.
//   - "ftss:conc" — the concurrent shell (the live runtime, the wire
//     transport, the cluster layer, telemetry, CLI plumbing). The
//     concurrency analyzers run: guardedby, atomicmix, chandiscipline,
//     waitbalance.
//
// An internal package with no tier header is itself a finding; cmd/
// binaries and examples stay exempt. Test files are never analyzed.
//
// Escape hatches are directives too: "ftss:orderless <reason>" on a map
// range whose order provably cannot reach output, a file-level
// "ftss:pool <reason>" sanctioning goroutine fan-out in a worker-pool
// file (such a file also gets the chandiscipline and waitbalance
// checks, even inside a det package), and "ftss:unguarded <reason>" on
// a line the concurrency analyzers should not police. Annotations feed
// the conc tier as well: "ftss:guardedby <mu>" on a struct field binds
// it to the named sibling mutex. Every escape hatch must carry a
// reason; the directive analyzer enforces that.
//
// Everything here is stdlib-only (go/parser, go/ast, go/types): the
// module stays dependency-free.
//
//ftss:det diagnostics are CI-gated artifacts and must be byte-identical across runs
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressed by file:line:col. File is
// relative to the module root, so output is stable across machines and
// diffs cleanly as a committed CI artifact.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Analyzer is one named check over a loaded package.
type Analyzer struct {
	Name string
	Doc  string
	// Tier is "det", "conc", or "" for checks that always run (the
	// directive well-formedness analyzer). Tier-scoped analyzers still
	// decide applicability per package themselves; the field exists for
	// the CLI's -tier filter and the report.
	Tier string
	Run  func(p *Package) []Diagnostic
}

// All returns every analyzer in name order.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicMix,
		ChanDiscipline,
		CloneAlias,
		Directives,
		GuardedBy,
		MapOrder,
		NoGoroutine,
		NoWallClock,
		ObsNames,
		SeededRand,
		WaitBalance,
	}
}

// ForTier returns the analyzers of one tier ("det" or "conc"), plus the
// tier-independent checks; "all" (or "") returns every analyzer.
func ForTier(tier string) []*Analyzer {
	if tier == "all" || tier == "" {
		return All()
	}
	var out []*Analyzer
	for _, a := range All() {
		if a.Tier == tier || a.Tier == "" {
			out = append(out, a)
		}
	}
	return out
}

// Lint runs every analyzer over every package and returns the combined
// diagnostics in sorted order.
func Lint(pkgs []*Package) []Diagnostic {
	return LintWith(pkgs, All())
}

// LintWith runs the given analyzers over every package and returns the
// combined diagnostics in sorted order.
func LintWith(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		for _, a := range analyzers {
			out = append(out, a.Run(p)...)
		}
	}
	SortDiagnostics(out)
	return out
}

// SortDiagnostics orders diagnostics by (file, line, col, analyzer,
// message) — the stable order the JSON report and the fixture tests
// rely on.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Package is one loaded, type-checked package plus its parsed ftss
// directives — the unit every analyzer operates on.
type Package struct {
	// Path is the import path ("ftss/internal/history"), synthetic for
	// directories outside the module.
	Path string
	// Dir is the absolute directory; Root the module root that File
	// fields of diagnostics are made relative to.
	Dir  string
	Root string
	Name string

	Fset *token.FileSet
	// Files are the non-test source files, sorted by filename;
	// FileNames holds the matching root-relative names.
	Files     []*ast.File
	FileNames []string

	Types *types.Package
	Info  *types.Info
	// TypeErrors are soft type-checking errors (analysis proceeds on
	// partial information).
	TypeErrors []error

	Directives []Directive

	det       bool
	conc      bool
	orderless map[string]map[int]Directive
	pool      map[string]Directive
	guarded   map[string]map[int]Directive
	unguarded map[string]map[int]Directive
}

// Det reports whether the package carries the ftss:det annotation.
func (p *Package) Det() bool { return p.det }

// Conc reports whether the package carries the ftss:conc annotation.
func (p *Package) Conc() bool { return p.conc }

// lineDirective looks a directive up by file line: same line (trailing
// comment) or the line directly above, the attachment convention every
// line-scoped directive shares.
func lineDirective(byFile map[string]map[int]Directive, file string, line int) (Directive, bool) {
	byLine := byFile[file]
	if d, ok := byLine[line]; ok {
		return d, true
	}
	d, ok := byLine[line-1]
	return d, ok
}

// OrderlessAt returns the ftss:orderless directive governing a range
// statement at the given file line: on the same line (trailing comment)
// or the line directly above.
func (p *Package) OrderlessAt(file string, line int) (Directive, bool) {
	return lineDirective(p.orderless, file, line)
}

// GuardedByAt returns the ftss:guardedby directive annotating a struct
// field at the given file line (same line or the line directly above).
func (p *Package) GuardedByAt(file string, line int) (Directive, bool) {
	return lineDirective(p.guarded, file, line)
}

// UnguardedAt returns the ftss:unguarded escape hatch governing the
// given file line (same line or the line directly above).
func (p *Package) UnguardedAt(file string, line int) (Directive, bool) {
	return lineDirective(p.unguarded, file, line)
}

// PoolDirective returns the file-level ftss:pool directive of the named
// file, if any.
func (p *Package) PoolDirective(file string) (Directive, bool) {
	d, ok := p.pool[file]
	return d, ok
}

// concFiles returns the indices of the files subject to the concurrency
// discipline checks (chandiscipline, waitbalance): every file of a
// //ftss:conc package, and the //ftss:pool-sanctioned worker-pool files
// of any other package — a det package's only sanctioned goroutines
// still owe the channel and WaitGroup protocol.
func (p *Package) concFiles() []int {
	var idx []int
	for i, name := range p.FileNames {
		if p.conc {
			idx = append(idx, i)
			continue
		}
		if _, ok := p.pool[name]; ok {
			idx = append(idx, i)
		}
	}
	return idx
}

// indexDirectives builds the lookup tables behind the At accessors and
// the tier flags.
func (p *Package) indexDirectives() {
	p.orderless = map[string]map[int]Directive{}
	p.pool = map[string]Directive{}
	p.guarded = map[string]map[int]Directive{}
	p.unguarded = map[string]map[int]Directive{}
	index := func(m map[string]map[int]Directive, d Directive) {
		if m[d.File] == nil {
			m[d.File] = map[int]Directive{}
		}
		m[d.File][d.Line] = d
	}
	for _, d := range p.Directives {
		switch d.Kind {
		case "det":
			if d.header {
				p.det = true
			}
		case "conc":
			if d.header {
				p.conc = true
			}
		case "orderless":
			index(p.orderless, d)
		case "pool":
			p.pool[d.File] = d
		case "guardedby":
			index(p.guarded, d)
		case "unguarded":
			index(p.unguarded, d)
		}
	}
}

// diag builds a Diagnostic at the given position.
func (p *Package) diag(analyzer string, pos token.Pos, msg string) Diagnostic {
	ps := p.Fset.Position(pos)
	return Diagnostic{
		Analyzer: analyzer,
		File:     p.relFile(ps.Filename),
		Line:     ps.Line,
		Col:      ps.Column,
		Message:  msg,
	}
}

// line is the 1-based line of a position.
func (p *Package) line(pos token.Pos) int { return p.Fset.Position(pos).Line }

// relFile makes a filename relative to the module root when possible.
func (p *Package) relFile(fn string) string {
	if r, err := filepath.Rel(p.Root, fn); err == nil && r != "" && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return filepath.ToSlash(fn)
}

// objOf resolves an identifier to its object, whether it is a use or a
// definition site.
func (p *Package) objOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// selectsPackage reports whether sel selects a member of the imported
// package with the given path (alias-proof: resolved through the type
// checker, so a local variable shadowing the import does not match).
func (p *Package) selectsPackage(sel *ast.SelectorExpr, pkgPath string) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// typeOf returns the static type of an expression, or nil.
func (p *Package) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isBuiltin reports whether the call target is the named builtin.
func (p *Package) isBuiltin(fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.objOf(id).(*types.Builtin)
	return ok
}

// rootIdent walks to the identifier at the root of a selector / index /
// slice / deref / type-assert chain; a call or literal anywhere on the
// way yields nil (a call result is a fresh value, not an alias).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// within reports whether pos lies inside node.
func within(pos token.Pos, node ast.Node) bool {
	return node.Pos() <= pos && pos <= node.End()
}
