package wire

import (
	"testing"

	"ftss/internal/detector"
)

// allocSyncMsg is the dominant message on the networked runtime's wire:
// one Figure 4 SyncMsg for n=8.
func allocSyncMsg() detector.SyncMsg {
	msg := detector.SyncMsg{Records: make([]detector.Status, 8)}
	for i := range msg.Records {
		msg.Records[i] = detector.Status{Num: uint64(i) * 977, Dead: i%3 == 0}
	}
	return msg
}

// TestAppendFrameAllocationCeiling: framing into a reused buffer is the
// transport's steady state and must not allocate. The payload is boxed
// once, as the transport passes it.
func TestAppendFrameAllocationCeiling(t *testing.T) {
	var payload any = allocSyncMsg()
	buf := make([]byte, 0, 256)
	var err error
	avg := testing.AllocsPerRun(200, func() { buf, err = AppendFrame(buf[:0], 3, payload) })
	if err != nil || len(buf) == 0 {
		t.Fatalf("AppendFrame: %d bytes, err %v", len(buf), err)
	}
	if avg > 0 {
		t.Errorf("AppendFrame into a reused buffer: %.1f allocs, ceiling 0", avg)
	}
}

// TestDecodeFrameAllocationCeiling: a strict decode of the same frame
// allocates the boxed payload and its record slice, and nothing else.
func TestDecodeFrameAllocationCeiling(t *testing.T) {
	frame, err := AppendFrame(nil, 3, allocSyncMsg())
	if err != nil {
		t.Fatal(err)
	}
	var payload any
	avg := testing.AllocsPerRun(200, func() { _, payload, err = DecodeFrame(frame) })
	if err != nil || len(payload.(detector.SyncMsg).Records) != 8 {
		t.Fatalf("DecodeFrame: %v, err %v", payload, err)
	}
	const ceiling = 2
	if avg > ceiling {
		t.Errorf("DecodeFrame: %.1f allocs, ceiling %d", avg, ceiling)
	}
}
