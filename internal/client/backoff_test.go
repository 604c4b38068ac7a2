package client

import (
	"testing"
	"time"
)

// TestBackoffDelaySchedule pins the no-header growth schedule: doubling
// from 10ms, capped at the retry cap, with equal jitter (half the step
// guaranteed, the rest random). rnd=1 exposes the full step, rnd=0 the
// guaranteed floor.
func TestBackoffDelaySchedule(t *testing.T) {
	const limit = time.Second
	full := func() float64 { return 1 }
	halfR := func() float64 { return 0 }

	wantFull := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 160 * time.Millisecond, 320 * time.Millisecond,
		640 * time.Millisecond, time.Second, time.Second, time.Second,
	}
	for attempt, want := range wantFull {
		if got := backoffDelay(attempt, "", limit, full); got != want {
			t.Fatalf("attempt %d rnd=1: got %v, want %v", attempt, got, want)
		}
		if got := backoffDelay(attempt, "", limit, halfR); got != want/2 {
			t.Fatalf("attempt %d rnd=0: got %v, want %v", attempt, got, want/2)
		}
	}

	// Huge attempt counts must not overflow the shift: capped, not negative.
	if got := backoffDelay(500, "", limit, full); got != limit {
		t.Fatalf("attempt 500: got %v, want %v", got, limit)
	}

	// Jitter stays within [half, full] for any rnd in [0,1).
	mid := func() float64 { return 0.5 }
	if got := backoffDelay(2, "", limit, mid); got != 30*time.Millisecond {
		t.Fatalf("attempt 2 rnd=0.5: got %v, want 30ms", got)
	}
}

// TestBackoffDelayRetryAfter pins header handling: parsable seconds are
// honored verbatim (no jitter), capped; garbage falls back to the
// exponential schedule.
func TestBackoffDelayRetryAfter(t *testing.T) {
	const limit = time.Second
	full := func() float64 { return 1 }

	if got := backoffDelay(0, "0", limit, full); got != 0 {
		t.Fatalf(`Retry-After "0": got %v, want 0`, got)
	}
	if got := backoffDelay(5, "1", 2*time.Second, full); got != time.Second {
		t.Fatalf(`Retry-After "1": got %v, want 1s`, got)
	}
	if got := backoffDelay(0, "30", retryCap, full); got != time.Second {
		t.Fatalf(`Retry-After "30": got %v, want the 1s cap`, got)
	}
	// Unparsable header: same as no header.
	if got := backoffDelay(3, "soon", limit, full); got != 80*time.Millisecond {
		t.Fatalf(`Retry-After "soon": got %v, want 80ms`, got)
	}
	// Negative seconds are ignored, not honored.
	if got := backoffDelay(0, "-5", limit, full); got != 10*time.Millisecond {
		t.Fatalf(`Retry-After "-5": got %v, want 10ms`, got)
	}
}
