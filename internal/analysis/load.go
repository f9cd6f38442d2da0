package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages with no toolchain dependency
// beyond the standard library: module-local imports are resolved by
// recursively type-checking their source directories, everything else
// goes through go/importer's source importer ($GOROOT/src). A stdlib
// import that fails to load degrades to an empty placeholder package so
// analysis of the importing package proceeds on package-local type
// information instead of dying.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string

	std     types.Importer
	typesBy map[string]*types.Package // by import path
	pkgsBy  map[string]*Package       // by absolute directory
	loading map[string]bool           // cycle guard, by absolute directory
}

// NewLoader builds a loader rooted at the module directory (the one
// holding go.mod).
func NewLoader(modRoot string) (*Loader, error) {
	abs, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:    token.NewFileSet(),
		ModRoot: abs,
		ModPath: modPath,
		typesBy: map[string]*types.Package{},
		pkgsBy:  map[string]*Package{},
		loading: map[string]bool{},
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	return l, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// Import implements types.Importer for the dependencies of packages
// under analysis.
func (l *Loader) Import(ipath string) (*types.Package, error) {
	if tp, ok := l.typesBy[ipath]; ok {
		return tp, nil
	}
	if ipath == "unsafe" {
		return types.Unsafe, nil
	}
	if dir := l.localDir(ipath); dir != "" {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	// Stdlib (or at least non-module): a failed import degrades to an
	// empty placeholder so analysis of the importer proceeds on
	// package-local type information instead of dying.
	tp, err := l.std.Import(ipath)
	if err != nil || tp == nil {
		tp = types.NewPackage(ipath, path.Base(ipath))
		tp.MarkComplete()
	}
	l.typesBy[ipath] = tp
	return tp, nil
}

// localDir maps a module-local import path to its directory, or "".
func (l *Loader) localDir(ipath string) string {
	if ipath == l.ModPath {
		return l.ModRoot
	}
	if rest, ok := strings.CutPrefix(ipath, l.ModPath+"/"); ok {
		return filepath.Join(l.ModRoot, filepath.FromSlash(rest))
	}
	return ""
}

// importPathFor is localDir's inverse; directories outside the module
// get a synthetic slash path (only used for display).
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(dir)
	}
	if rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// LoadDir parses and type-checks the package in one directory. Test
// files are excluded — they are exempt from every contract. Type errors
// are soft: they are recorded on the package and analysis proceeds on
// whatever the checker resolved.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgsBy[abs]; ok {
		return p, nil
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("import cycle through %s", abs)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)

	names, err := goFileNames(abs)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no buildable Go files", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkgName := files[0].Name.Name
	for i, f := range files {
		if f.Name.Name != pkgName {
			return nil, fmt.Errorf("%s: multiple packages (%s, %s)", dir, pkgName, f.Name.Name)
		}
		_ = i
	}

	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	var soft []error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { soft = append(soft, err) },
	}
	ipath := l.importPathFor(abs)
	tpkg, _ := conf.Check(ipath, l.Fset, files, info) // hard errors are mirrored in soft
	l.typesBy[ipath] = tpkg

	p := &Package{
		Path:       ipath,
		Dir:        abs,
		Root:       l.ModRoot,
		Name:       pkgName,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		TypeErrors: soft,
	}
	for _, f := range files {
		fname := p.relFile(l.Fset.Position(f.Pos()).Filename)
		p.FileNames = append(p.FileNames, fname)
		p.Directives = append(p.Directives, parseDirectives(l.Fset, f, fname)...)
	}
	p.indexDirectives()
	l.pkgsBy[abs] = p
	return p, nil
}

// goFileNames lists the analyzable files of a directory in sorted
// order: .go, not _test.go, not editor/build artifacts.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Expand resolves go-style package patterns ("./...",
// "./internal/...", "internal/chaos") into the sorted list of package
// directories under root. Recursive patterns skip testdata, vendor, and
// hidden or underscore directories, matching the go tool.
func Expand(root string, patterns []string) ([]string, error) {
	rootAbs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		pat = path.Clean(filepath.ToSlash(pat))
		pat = strings.TrimPrefix(pat, "./")
		base, recursive := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if base == "" || base == "." {
			base = "."
		}
		start := filepath.Join(rootAbs, filepath.FromSlash(base))
		if !recursive {
			names, err := goFileNames(start)
			if err != nil {
				return nil, err
			}
			if len(names) == 0 {
				return nil, fmt.Errorf("%s: no buildable Go files", pat)
			}
			add(start)
			continue
		}
		err := filepath.WalkDir(start, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != start && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			names, err := goFileNames(p)
			if err != nil {
				return err
			}
			if len(names) > 0 {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LintDirs loads the packages of the given directories (as returned by
// Expand) through one Loader and runs the analyzers over them. It
// returns the packages in directory order and the sorted diagnostics;
// the first load error in directory order wins. One loader is all a run
// needs: type-checking the standard library from source dominates, and
// the source importer is not safe for concurrent use, so loading the
// packages in parallel measured no faster.
func LintDirs(modRoot string, dirs []string, analyzers []*Analyzer) ([]*Package, []Diagnostic, error) {
	l, err := NewLoader(modRoot)
	if err != nil {
		return nil, nil, err
	}
	pkgs := make([]*Package, len(dirs))
	for i, d := range dirs {
		if pkgs[i], err = l.LoadDir(d); err != nil {
			return nil, nil, err
		}
	}
	return pkgs, LintWith(pkgs, analyzers), nil
}
