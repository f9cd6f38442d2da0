package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const (
	cleanFixture     = "internal/analysis/testdata/src/clean"
	wallclockFixture = "internal/analysis/testdata/src/wallclock"
	guardedbyFixture = "internal/analysis/testdata/src/guardedby"
)

func runLint(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	code, err := run(append([]string{"-root", "../.."}, args...), &buf)
	if err != nil && code != 2 {
		t.Fatalf("run(%v) error with code %d: %v", args, code, err)
	}
	return code, buf.String()
}

func TestCleanExitsZero(t *testing.T) {
	code, out := runLint(t, cleanFixture)
	if code != 0 {
		t.Fatalf("exit %d on clean fixture, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "ftss-lint: clean") || !strings.Contains(out, "1 deterministic") {
		t.Errorf("summary line missing: %q", out)
	}
}

func TestFindingsExitOne(t *testing.T) {
	code, out := runLint(t, wallclockFixture)
	if code != 1 {
		t.Fatalf("exit %d on wallclock fixture, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "wallclock.go:") || !strings.Contains(out, "[nowallclock]") {
		t.Errorf("diagnostic lines missing: %q", out)
	}
	if !strings.Contains(out, "finding(s)") {
		t.Errorf("summary line missing: %q", out)
	}
}

func TestJSONReport(t *testing.T) {
	code, out := runLint(t, "-json", wallclockFixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if rep.Findings == 0 || rep.Findings != len(rep.Diagnostics) {
		t.Errorf("Findings = %d, len(Diagnostics) = %d", rep.Findings, len(rep.Diagnostics))
	}
	if rep.Packages != 1 || rep.DetPackages != 1 {
		t.Errorf("Packages = %d, DetPackages = %d, want 1, 1", rep.Packages, rep.DetPackages)
	}
	if len(rep.Analyzers) < 5 {
		t.Errorf("Analyzers = %v, want the full suite", rep.Analyzers)
	}
	for _, d := range rep.Diagnostics {
		if d.File == "" || d.Line == 0 || d.Message == "" || d.Analyzer == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
}

func TestJSONCleanHasEmptyDiagnostics(t *testing.T) {
	code, out := runLint(t, "-json", cleanFixture)
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if rep.Findings != 0 {
		t.Errorf("Findings = %d, want 0", rep.Findings)
	}
	if !strings.Contains(out, `"diagnostics": []`) {
		t.Errorf("diagnostics must serialize as [], not null:\n%s", out)
	}
}

// TestStableOutput pins the determinism of the linter's own output:
// two runs over the same tree produce byte-identical reports.
func TestStableOutput(t *testing.T) {
	_, first := runLint(t, "-json", wallclockFixture, cleanFixture)
	_, second := runLint(t, "-json", wallclockFixture, cleanFixture)
	if first != second {
		t.Errorf("output differs across runs:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

// TestTierFilter pins the -tier flag: the conc tier flags the guardedby
// fixture, the det tier passes it (conc analyzers filtered out), and
// the report records which tier ran.
func TestTierFilter(t *testing.T) {
	code, out := runLint(t, "-json", "-tier", "conc", guardedbyFixture)
	if code != 1 {
		t.Fatalf("-tier conc on guardedby fixture: exit %d, want 1\n%s", code, out)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if rep.Tier != "conc" || rep.ConcPackages != 1 || rep.DetPackages != 0 {
		t.Errorf("Tier = %q, ConcPackages = %d, DetPackages = %d, want conc, 1, 0", rep.Tier, rep.ConcPackages, rep.DetPackages)
	}
	for _, a := range rep.Analyzers {
		switch a {
		case "guardedby", "atomicmix", "chandiscipline", "waitbalance", "directive":
		default:
			t.Errorf("-tier conc ran det analyzer %s", a)
		}
	}
	for _, d := range rep.Diagnostics {
		if d.Analyzer != "guardedby" && d.Analyzer != "directive" {
			t.Errorf("unexpected analyzer in findings: %+v", d)
		}
	}

	code, out = runLint(t, "-tier", "det", guardedbyFixture)
	if code != 0 {
		t.Fatalf("-tier det on guardedby fixture: exit %d, want 0 (conc analyzers filtered)\n%s", code, out)
	}
}

func TestBadTierExitsTwo(t *testing.T) {
	code, out := runLint(t, "-tier", "bogus", cleanFixture)
	if code != 2 {
		t.Errorf("exit %d on -tier bogus, want 2\n%s", code, out)
	}
}

func TestBadPatternExitsTwo(t *testing.T) {
	code, _ := runLint(t, "internal/nosuchpkg")
	if code != 2 {
		t.Errorf("exit %d on bad pattern, want 2", code)
	}
}
