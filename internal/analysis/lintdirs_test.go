package analysis

import (
	"path/filepath"
	"testing"
)

// TestLintDirsTierFilter pins ForTier composition through LintDirs: the
// det tier sees no conc findings and vice versa, while the directive
// analyzer runs in both.
func TestLintDirsTierFilter(t *testing.T) {
	root := filepath.Join("..", "..")
	dirs := []string{
		filepath.Join("testdata", "src", "guardedby"),
		filepath.Join("testdata", "src", "wallclock"),
	}
	_, det, err := LintDirs(root, dirs, ForTier("det"))
	if err != nil {
		t.Fatal(err)
	}
	_, conc, err := LintDirs(root, dirs, ForTier("conc"))
	if err != nil {
		t.Fatal(err)
	}
	count := func(ds []Diagnostic, analyzer string) int {
		n := 0
		for _, d := range ds {
			if d.Analyzer == analyzer {
				n++
			}
		}
		return n
	}
	if count(det, "nowallclock") == 0 || count(det, "guardedby") != 0 {
		t.Errorf("det tier: %v, want nowallclock findings and no guardedby findings", det)
	}
	if count(conc, "guardedby") == 0 || count(conc, "nowallclock") != 0 {
		t.Errorf("conc tier: %v, want guardedby findings and no nowallclock findings", conc)
	}
}

// TestForTier pins the tier partition of the suite: every analyzer is
// det, conc, or tier-independent, and ForTier returns the matching
// subset plus the independent ones.
func TestForTier(t *testing.T) {
	if got, want := len(ForTier("all")), len(All()); got != want {
		t.Errorf("ForTier(all) = %d analyzers, want %d", got, want)
	}
	for _, tier := range []string{"det", "conc"} {
		for _, a := range ForTier(tier) {
			if a.Tier != tier && a.Tier != "" {
				t.Errorf("ForTier(%s) includes %s (tier %q)", tier, a.Name, a.Tier)
			}
		}
	}
	names := func(as []*Analyzer) map[string]bool {
		m := map[string]bool{}
		for _, a := range as {
			m[a.Name] = true
		}
		return m
	}
	det, conc := names(ForTier("det")), names(ForTier("conc"))
	for _, n := range []string{"nowallclock", "seededrand", "maporder", "nogoroutine", "clonealias", "directive"} {
		if !det[n] {
			t.Errorf("ForTier(det) is missing %s", n)
		}
	}
	for _, n := range []string{"guardedby", "atomicmix", "chandiscipline", "waitbalance", "directive"} {
		if !conc[n] {
			t.Errorf("ForTier(conc) is missing %s", n)
		}
	}
}
