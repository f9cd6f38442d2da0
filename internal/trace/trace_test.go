package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"ftss/internal/core"
	"ftss/internal/failure"
	"ftss/internal/fullinfo"
	"ftss/internal/history"
	"ftss/internal/obs"
	"ftss/internal/proc"
	"ftss/internal/sim/round"
	"ftss/internal/superimpose"
)

func compiledHistory(t *testing.T) (*history.History, superimpose.RepeatedConsensus, int) {
	t.Helper()
	pi := fullinfo.WavefrontConsensus{F: 1}
	in := superimpose.SeededInputs(4, 100)
	adv := failure.NewScripted(2).CrashAt(2, 6)
	cs, ps := superimpose.Procs(pi, 3, in)
	rng := rand.New(rand.NewSource(9))
	for _, c := range cs {
		c.Corrupt(rng)
	}
	h := history.New(3, adv.Faulty())
	e := round.MustNewEngine(ps, adv)
	e.Observe(h)
	e.Run(12)
	return h, superimpose.RepeatedConsensus{FinalRound: pi.FinalRound(), Inputs: in}, pi.FinalRound()
}

func TestTimelineFull(t *testing.T) {
	h, _, _ := compiledHistory(t)
	var sb strings.Builder
	Timeline(&sb, h, Full())
	out := sb.String()

	if !strings.Contains(out, "r1 ") {
		t.Error("missing round 1 line")
	}
	if !strings.Contains(out, "p0:c=") {
		t.Error("missing clock cells")
	}
	if !strings.Contains(out, "coterie=") {
		t.Error("missing coterie column")
	}
	if !strings.Contains(out, "p2:†") {
		t.Error("crashed process should render as †")
	}
	if !strings.Contains(out, "deviated=") {
		t.Error("crash round should list the deviation")
	}
	if !strings.Contains(out, "d=") {
		t.Error("decisions should appear after the first completed iteration")
	}
	if lines := strings.Count(out, "\n"); lines != 12 {
		t.Errorf("timeline has %d lines, want 12", lines)
	}
}

func TestTimelineBounds(t *testing.T) {
	h, _, _ := compiledHistory(t)
	var sb strings.Builder
	Timeline(&sb, h, Options{From: 3, To: 5, Clocks: true})
	out := sb.String()
	if strings.Contains(out, "r2 ") || strings.Contains(out, "r6 ") {
		t.Error("bounds not respected")
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Errorf("lines = %d, want 3", lines)
	}
	// Out-of-range bounds are clamped.
	sb.Reset()
	Timeline(&sb, h, Options{From: -5, To: 999, Clocks: true})
	if lines := strings.Count(sb.String(), "\n"); lines != 12 {
		t.Errorf("clamped lines = %d, want 12", lines)
	}
}

func TestSegments(t *testing.T) {
	h, _, _ := compiledHistory(t)
	h.MarkSystemicFailure()
	var sb strings.Builder
	Segments(&sb, h)
	out := sb.String()
	if !strings.Contains(out, "prefixes [0..0]") {
		t.Errorf("missing initial segment:\n%s", out)
	}
	if !strings.Contains(out, "coterie {") {
		t.Error("missing coterie rendering")
	}
	if !strings.Contains(out, "systemic failures after prefixes") {
		t.Error("missing marks line")
	}
}

func TestVerdictSatisfied(t *testing.T) {
	h, sigma, fr := compiledHistory(t)
	var sb strings.Builder
	if err := VerdictFrom(&sb, core.EvalIncremental(h, sigma, fr)); err != nil {
		t.Fatalf("verdict: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "SATISFIED") {
		t.Errorf("missing SATISFIED:\n%s", out)
	}
	if !strings.Contains(out, "final segment: event at round") {
		t.Error("missing measurement line")
	}
}

func TestVerdictViolated(t *testing.T) {
	h, _, _ := compiledHistory(t)
	var sb strings.Builder
	always := core.Func{ProblemName: "never", Round: func(_ *history.History, r int, _ proc.Set) error {
		return &core.Violation{Problem: "never", Round: r, Detail: "by construction"}
	}}
	if err := VerdictFrom(&sb, core.EvalIncremental(h, always, 1)); err == nil {
		t.Fatal("expected an error")
	}
	out := sb.String()
	if !strings.Contains(out, "VIOLATED") || !strings.Contains(out, "never satisfied") {
		t.Errorf("violated rendering wrong:\n%s", out)
	}
}

func TestSummary(t *testing.T) {
	h, _, _ := compiledHistory(t)
	var sb strings.Builder
	Summary(&sb, h)
	out := sb.String()
	for _, want := range []string{"12 rounds", "3 processes", "coterie events at rounds", "final coterie"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestTimelineEmptyWindows is the regression pin for the bounds fix:
// From past the end of the history or an inverted explicit range must
// render nothing at all — not a partial or garbled range.
func TestTimelineEmptyWindows(t *testing.T) {
	h, _, _ := compiledHistory(t)
	cases := []struct {
		name string
		opt  Options
	}{
		{"from-past-end", Options{From: h.Len() + 1, Clocks: true}},
		{"from-past-end-explicit-to", Options{From: h.Len() + 1, To: h.Len() + 5, Clocks: true}},
		{"inverted-range", Options{From: 5, To: 3, Clocks: true}},
		{"inverted-at-start", Options{From: 2, To: 1, Clocks: true}},
	}
	for _, tc := range cases {
		var sb strings.Builder
		Timeline(&sb, h, tc.opt)
		if sb.Len() != 0 {
			t.Errorf("%s: rendered %d bytes, want nothing:\n%s", tc.name, sb.Len(), sb.String())
		}
	}
	// Sanity: the degenerate single-round window still renders.
	var sb strings.Builder
	Timeline(&sb, h, Options{From: 4, To: 4, Clocks: true})
	if lines := strings.Count(sb.String(), "\n"); lines != 1 {
		t.Errorf("single-round window rendered %d lines, want 1", lines)
	}
}

// events renders the stream of one evaluation, the way the harnesses
// call EventsFrom.
func events(sink obs.Sink, h *history.History, sigma core.Problem, stab int) error {
	ic := core.EvalIncremental(h, sigma, stab)
	return EventsFrom(sink, ic, ic.Measure())
}

// TestEvents checks the Def-2.4 event stream: segment_open/segment_close
// pairs per stable segment, a systemic event per mark, and a final
// verdict event agreeing with core.CheckFTSS.
func TestEvents(t *testing.T) {
	h, sigma, fr := compiledHistory(t)
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	if err := events(sink, h, sigma, fr); err != nil {
		t.Fatalf("Events verdict disagreed with CheckFTSS: %v", err)
	}
	out := buf.String()
	segs := h.StableSegments()
	if got := strings.Count(out, `"ev":"segment_open"`); got != len(segs) {
		t.Errorf("segment_open count = %d, want %d", got, len(segs))
	}
	if got := strings.Count(out, `"ev":"segment_close"`); got != len(segs) {
		t.Errorf("segment_close count = %d, want %d", got, len(segs))
	}
	if !strings.Contains(out, `"ev":"verdict"`) || !strings.Contains(out, `"ok":1`) {
		t.Errorf("missing passing verdict event:\n%s", out)
	}

	// A violated Σ must close at least one segment with ok:0 and return
	// the violation.
	buf.Reset()
	never := core.Func{ProblemName: "never", Round: func(_ *history.History, r int, _ proc.Set) error {
		return &core.Violation{Problem: "never", Round: r, Detail: "by construction"}
	}}
	if err := events(sink, h, never, 1); err == nil {
		t.Fatal("expected a violation")
	}
	if out := buf.String(); !strings.Contains(out, `"ok":0`) {
		t.Errorf("violated run missing ok:0 close:\n%s", out)
	}
}

// TestEventsRejectsBadStab: stab < 1 is rejected with CheckFTSS's error
// and nothing reaches the stream.
func TestEventsRejectsBadStab(t *testing.T) {
	h, sigma, _ := compiledHistory(t)
	for _, stab := range []int{0, -3} {
		var buf bytes.Buffer
		err := events(obs.NewJSONL(&buf), h, sigma, stab)
		want := core.CheckFTSS(h, sigma, stab)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("stab %d: Events error %v, want CheckFTSS's %v", stab, err, want)
		}
		if buf.Len() != 0 {
			t.Errorf("stab %d: rejected budget still emitted:\n%s", stab, buf.String())
		}
	}
}
