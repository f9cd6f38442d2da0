// Command ftss-lint statically enforces the repo's determinism and
// concurrency contracts (DESIGN.md §5 "Determinism lint" and §11
// "Concurrency lint tier"). It loads every package named by go-style
// patterns through one loader, runs the internal/analysis suite — the
// det tier (nowallclock, seededrand, maporder, nogoroutine, clonealias),
// the conc tier (guardedby, atomicmix, chandiscipline, waitbalance), and
// the tier-independent directive well-formedness check — and reports
// file:line diagnostics:
//
//	go run ./cmd/ftss-lint ./...
//	go run ./cmd/ftss-lint -tier conc ./...
//	go run ./cmd/ftss-lint -json ./... > ftss-lint.json
//
// Strictness is per package, driven by the //ftss:det / //ftss:conc
// header annotations (every internal/... package must carry exactly
// one); //ftss:orderless, //ftss:pool, and //ftss:unguarded are the
// reasoned escape hatches (see internal/analysis). -tier selects one
// tier's analyzers (the directive check always runs). -json emits a
// machine-readable report with stable ordering: CI runs it as a blocking
// step and uploads the report as an artifact.
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ftss/internal/analysis"
)

// Report is the -json output: counts first, then the sorted
// diagnostics.
type Report struct {
	Findings     int                   `json:"findings"`
	Packages     int                   `json:"packages"`
	DetPackages  int                   `json:"det_packages"`
	ConcPackages int                   `json:"conc_packages"`
	Tier         string                `json:"tier"`
	Analyzers    []string              `json:"analyzers"`
	Diagnostics  []analysis.Diagnostic `json:"diagnostics"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftss-lint:", err)
	}
	os.Exit(code)
}

func run(args []string, w io.Writer) (int, error) {
	fs := flag.NewFlagSet("ftss-lint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report")
	root := fs.String("root", ".", "module root `dir` (holds go.mod)")
	tier := fs.String("tier", "all", "analyzer tier to run: all, det, or conc (directive checks always run)")
	if err := fs.Parse(args); err != nil {
		return 2, nil // flag package already printed usage
	}
	if *tier != "all" && *tier != "det" && *tier != "conc" {
		return 2, fmt.Errorf("-tier %q: want all, det, or conc", *tier)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	dirs, err := analysis.Expand(*root, patterns)
	if err != nil {
		return 2, err
	}
	analyzers := analysis.ForTier(*tier)
	pkgs, diags, err := analysis.LintDirs(*root, dirs, analyzers)
	if err != nil {
		return 2, err
	}
	det, conc := 0, 0
	for _, p := range pkgs {
		if p.Det() {
			det++
		}
		if p.Conc() {
			conc++
		}
	}
	var names []string
	for _, a := range analyzers {
		names = append(names, a.Name)
	}

	if *jsonOut {
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		rep := Report{
			Findings:     len(diags),
			Packages:     len(pkgs),
			DetPackages:  det,
			ConcPackages: conc,
			Tier:         *tier,
			Analyzers:    names,
			Diagnostics:  diags,
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return 2, err
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return 2, err
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(w, d)
		}
		if len(diags) == 0 {
			fmt.Fprintf(w, "ftss-lint: clean — %d packages (%d deterministic, %d concurrent), analyzers: %s\n",
				len(pkgs), det, conc, strings.Join(names, ", "))
		} else {
			fmt.Fprintf(w, "ftss-lint: %d finding(s) in %d packages\n", len(diags), len(pkgs))
		}
	}
	if len(diags) > 0 {
		return 1, nil
	}
	return 0, nil
}
