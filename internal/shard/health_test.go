package shard

import (
	"testing"
	"time"
)

// clock is a synthetic time source for driving the tracker.
type clock struct{ t time.Time }

func newClock() *clock { return &clock{t: time.Unix(1_700_000_000, 0)} }

func (c *clock) now() time.Time                    { return c.t }
func (c *clock) advance(d time.Duration) time.Time { c.t = c.t.Add(d); return c.t }

// Ejected reports whether worker is currently ejected (half-open
// counts as ejected until a probe succeeds).
func (t *Tracker) Ejected(worker string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state(worker).ejected
}

func TestTrackerEjectsOnConsecutiveFailures(t *testing.T) {
	c := newClock()
	tr := NewTracker(2*time.Second, []string{"w0"})

	tr.ReportFailure("w0", c.now())
	tr.ReportFailure("w0", c.now())
	if !tr.Usable("w0", c.now()) {
		t.Fatal("ejected before threshold")
	}
	tr.ReportFailure("w0", c.now())
	if tr.Usable("w0", c.now()) {
		t.Fatal("usable after 3 consecutive failures")
	}
	if !tr.Ejected("w0") {
		t.Fatal("Ejected() false after ejection")
	}
}

func TestTrackerSuccessResetsStreak(t *testing.T) {
	c := newClock()
	tr := NewTracker(2*time.Second, []string{"w0"})
	tr.ReportFailure("w0", c.now())
	tr.ReportFailure("w0", c.now())
	tr.ReportSuccess("w0", time.Millisecond)
	tr.ReportFailure("w0", c.now())
	tr.ReportFailure("w0", c.now())
	if !tr.Usable("w0", c.now()) {
		t.Fatal("streak not reset by success")
	}
}

func TestTrackerHalfOpenSingleProbe(t *testing.T) {
	c := newClock()
	tr := NewTracker(2*time.Second, []string{"w0"})
	for i := 0; i < 3; i++ {
		tr.ReportFailure("w0", c.now())
	}
	if tr.Usable("w0", c.now()) {
		t.Fatal("usable while cooling down")
	}
	c.advance(time.Second)
	if tr.Usable("w0", c.now()) {
		t.Fatal("usable before cooldown elapsed")
	}
	c.advance(time.Second)
	// First caller after the cooldown gets the probe slot...
	if !tr.Usable("w0", c.now()) {
		t.Fatal("no half-open probe slot after cooldown")
	}
	// ...and everyone else keeps failing over until the probe settles.
	if tr.Usable("w0", c.now()) {
		t.Fatal("second caller also got the probe slot")
	}

	// A failed probe restarts the cooldown.
	tr.ReportFailure("w0", c.now())
	if tr.Usable("w0", c.now()) {
		t.Fatal("usable right after failed probe")
	}
	c.advance(2 * time.Second)
	if !tr.Usable("w0", c.now()) {
		t.Fatal("no new probe slot after second cooldown")
	}
	// A successful probe closes the breaker for everyone.
	tr.ReportSuccess("w0", time.Millisecond)
	if !tr.Usable("w0", c.now()) || !tr.Usable("w0", c.now()) {
		t.Fatal("not fully usable after successful probe")
	}
	if tr.Ejected("w0") {
		t.Fatal("still ejected after recovery")
	}
}

// TestTrackerAbandonedProbeFreesSlot: a half-open probe whose request
// ends on its own leaves the verdict open — the worker stays ejected
// with its streak untouched — and the next caller gets the slot.
func TestTrackerAbandonedProbeFreesSlot(t *testing.T) {
	c := newClock()
	tr := NewTracker(2*time.Second, []string{"w0"})
	for i := 0; i < 3; i++ {
		tr.ReportFailure("w0", c.now())
	}
	c.advance(2 * time.Second)
	if !tr.Usable("w0", c.now()) {
		t.Fatal("no half-open probe slot after cooldown")
	}
	tr.ReportAbandoned("w0")
	if !tr.Ejected("w0") {
		t.Fatal("an abandoned probe closed the breaker")
	}
	if got := tr.Snapshot()[0].ConsecFails; got != 3 {
		t.Fatalf("consec_fails = %d after an abandoned probe, want still 3", got)
	}
	if !tr.Usable("w0", c.now()) {
		t.Fatal("the abandoned probe kept its slot")
	}
	tr.ReportSuccess("w0", time.Millisecond)
	if tr.Ejected("w0") {
		t.Fatal("still ejected after the next probe succeeded")
	}

	// On a healthy worker an abandoned request changes nothing.
	tr.ReportFailure("w0", c.now())
	tr.ReportAbandoned("w0")
	if got := tr.Snapshot()[0].ConsecFails; got != 1 {
		t.Fatalf("consec_fails = %d, want the streak of 1 untouched", got)
	}
}

func TestTrackerUnknownWorkerStartsHealthy(t *testing.T) {
	c := newClock()
	tr := NewTracker(2*time.Second, nil)
	if !tr.Usable("late-joiner", c.now()) {
		t.Fatal("unknown worker not usable")
	}
}

func TestTrackerSnapshotSorted(t *testing.T) {
	c := newClock()
	tr := NewTracker(2*time.Second, []string{"w2", "w0", "w1"})
	for i := 0; i < 3; i++ {
		tr.ReportFailure("w1", c.now())
	}
	snap := tr.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d workers, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Worker >= snap[i].Worker {
			t.Fatal("snapshot not sorted by worker")
		}
	}
	if !snap[1].Ejected || snap[0].Ejected || snap[2].Ejected {
		t.Fatalf("snapshot ejection flags wrong: %+v", snap)
	}
}

// TestTrackerLatencyIsTelemetry: the latency EWMA (α = 0.3) is what
// Snapshot reports, and no latency, however slow, ejects a worker.
func TestTrackerLatencyIsTelemetry(t *testing.T) {
	c := newClock()
	tr := NewTracker(2*time.Second, []string{"w0"})
	tr.ReportSuccess("w0", 10*time.Millisecond)
	tr.ReportSuccess("w0", 110*time.Millisecond)
	if got, want := tr.Snapshot()[0].EWMA, 40*time.Millisecond; got != want {
		t.Errorf("EWMA = %v, want %v", got, want)
	}
	for i := 0; i < 10; i++ {
		tr.ReportSuccess("w0", time.Hour)
	}
	if !tr.Usable("w0", c.now()) || tr.Ejected("w0") {
		t.Fatal("a slow but answering worker was ejected")
	}
}
