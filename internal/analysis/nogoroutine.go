package analysis

import "go/ast"

// NoGoroutine forbids go statements in deterministic packages. Goroutine
// scheduling is nondeterministic; the only sanctioned concurrency in the
// det world is a worker pool whose results are merged back in a
// schedule-independent order, and such a file declares itself with a
// file-level //ftss:pool <reason> directive (internal/pool's Run, which
// internal/experiment fans repetitions across). Everything else belongs in
// internal/sim/live, which embraces real concurrency and is outside the
// contract.
var NoGoroutine = &Analyzer{
	Name: "nogoroutine",
	Doc:  "forbid go statements in ftss:det packages outside //ftss:pool-sanctioned worker-pool files",
	Tier: "det",
	Run:  runNoGoroutine,
}

func runNoGoroutine(p *Package) []Diagnostic {
	if !p.Det() {
		return nil
	}
	var out []Diagnostic
	for i, f := range p.Files {
		if _, sanctioned := p.PoolDirective(p.FileNames[i]); sanctioned {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				out = append(out, p.diag("nogoroutine", g.Pos(),
					"go statement in a //ftss:det package: goroutine scheduling is nondeterministic — route fan-out through a //ftss:pool-sanctioned worker pool that merges results in index order, or move the code to internal/sim/live"))
			}
			return true
		})
	}
	return out
}
