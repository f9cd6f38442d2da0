package main

import (
	"os"
	"strings"
	"testing"
)

func TestRunCompiled(t *testing.T) {
	if err := run([]string{"-n", "4", "-f", "1", "-rounds", "12", "-corrupt", "1,6", "-seed", "3", "-trace"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunNaiveReportsViolation(t *testing.T) {
	// The naive variant is expected to fail the checker after corruption;
	// run() reports that without returning an error for -naive.
	if err := run([]string{"-n", "3", "-f", "1", "-rounds", "10", "-naive", "-corrupt", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-n", "3", "-f", "3"}); err == nil {
		t.Fatal("f ≥ n accepted")
	}
	if err := run([]string{"-corrupt", "zero"}); err == nil {
		t.Fatal("bad corruption round accepted")
	}
	if err := run([]string{"-kind", "martian"}); err == nil {
		t.Fatal("unknown failure kind accepted")
	}
}

// TestEventsWriteFailureFailsRun: an -events stream the run could not
// write (a full disk) is a failed run, not a silently truncated file.
func TestEventsWriteFailureFailsRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	err := run([]string{"-n", "4", "-f", "1", "-rounds", "12", "-seed", "3", "-events", "/dev/full"})
	if err == nil || !strings.Contains(err.Error(), "event stream") {
		t.Fatalf("run with an unwritable -events stream returned %v", err)
	}
}
