package analysis

//ftss:pool one loader per worker over a shared work index; packages land by index and diagnostics are sorted after the merge, so output is identical for any worker count

import (
	"go/importer"
	"go/token"
	"go/types"
	"runtime"
	"sync"
)

// Package loading dominates lint wall time (type-checking pulls in the
// transitive dependencies of every package), and the packages of one
// run are independent: each worker owns a private Loader — the Loader
// caches by mutable maps and is not concurrency-safe — and claims
// directory indices from a shared counter, the internal/pool.Run shape
// with per-worker state (which is why it is not a caller). Results land in
// index-order slices and the diagnostics are sorted after the merge,
// so the report is byte-identical to a sequential run regardless of
// worker count.
//
// What the workers DO share is the import cache: type-checking any
// package pulls in its transitive dependencies, and without sharing,
// every worker re-checks the standard library from $GOROOT/src — a cost
// that swamps the parallelism (measured: 8 workers ran 5x SLOWER than
// one over this repo before the cache was shared). sharedImports
// single-flights each import path, so every dependency — stdlib or
// module-local — is type-checked exactly once per run while the
// assigned packages' own checks proceed in parallel. Completed
// types.Package values and token.FileSet are safe for concurrent
// reads, which is all the other workers do with them.

// sharedImports is the cross-worker import cache. Each import path gets
// a single-flight entry: the first worker to ask for it runs the load
// (under the entry's Once), everyone else blocks until the result is
// ready and then shares it. Entries for different paths do not block
// each other, and Go's import graph is acyclic, so nested resolution
// (a dependency importing another dependency) cannot deadlock.
type sharedImports struct {
	mu      sync.Mutex
	entries map[string]*importEntry

	// The source importer resolves stdlib paths by type-checking
	// $GOROOT/src; it caches internally but is not concurrency-safe, so
	// calls into it are serialized. stdMu is only ever acquired inside
	// an entry's Once and released before it returns — no cycle with the
	// entry locks.
	stdMu sync.Mutex
	std   types.Importer
}

type importEntry struct {
	once sync.Once
	tp   *types.Package
	err  error
}

func newSharedImports(fset *token.FileSet) *sharedImports {
	return &sharedImports{
		entries: map[string]*importEntry{},
		std:     importer.ForCompiler(fset, "source", nil),
	}
}

// resolve returns the cached package for ipath, running load exactly
// once across all workers on first use.
func (s *sharedImports) resolve(ipath string, load func() (*types.Package, error)) (*types.Package, error) {
	s.mu.Lock()
	e, ok := s.entries[ipath]
	if !ok {
		e = new(importEntry)
		s.entries[ipath] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.tp, e.err = load() })
	return e.tp, e.err
}

// stdImport serializes access to the shared source importer.
func (s *sharedImports) stdImport(ipath string) (*types.Package, error) {
	s.stdMu.Lock()
	defer s.stdMu.Unlock()
	return s.std.Import(ipath)
}

// LintDirs loads the packages of the given directories (as returned by
// Expand) across at most `workers` goroutines and runs the analyzers
// over them. It returns the packages in directory order and the merged,
// sorted diagnostics. workers <= 0 means GOMAXPROCS; workers == 1 runs
// inline with a single shared loader and no goroutines, the historical
// sequential path. The first load error in directory order wins, so
// even failures are deterministic.
func LintDirs(modRoot string, dirs []string, workers int, analyzers []*Analyzer) ([]*Package, []Diagnostic, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(dirs) {
		workers = len(dirs)
	}
	pkgs := make([]*Package, len(dirs))
	errs := make([]error, len(dirs))

	if workers <= 1 {
		l, err := NewLoader(modRoot)
		if err != nil {
			return nil, nil, err
		}
		for i, d := range dirs {
			pkgs[i], errs[i] = l.LoadDir(d)
		}
	} else {
		fset := token.NewFileSet() // concurrency-safe; shared so cached packages' positions resolve everywhere
		shared := newSharedImports(fset)
		var mu sync.Mutex
		next := 0
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				var l *Loader // built on first claim: an idle worker costs nothing
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= len(dirs) {
						return
					}
					if l == nil {
						if l, errs[i] = newPoolLoader(modRoot, fset, shared); errs[i] != nil {
							continue
						}
					}
					pkgs[i], errs[i] = l.LoadDir(dirs[i])
				}
			}()
		}
		wg.Wait()
	}

	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return pkgs, LintWith(pkgs, analyzers), nil
}
