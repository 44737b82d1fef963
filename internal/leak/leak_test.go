package leak

import (
	"strings"
	"testing"
	"time"
)

// TestDiffCleanPass covers the no-leak path, including goroutines that
// exit between snapshot and check.
func TestDiffCleanPass(t *testing.T) {
	before := Take()
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	if err := before.Diff(); err != nil {
		t.Fatalf("clean run reported a leak: %v", err)
	}
}

// shortSettle shrinks the retry schedule for tests that expect a leak, so
// they do not pay the full ~3s settle wait; the schedule is restored on
// cleanup.
func shortSettle(t *testing.T) {
	t.Helper()
	saved := settleSteps
	settleSteps = []time.Duration{time.Millisecond, 5 * time.Millisecond}
	t.Cleanup(func() { settleSteps = saved })
}

// TestDiffDetectsLeak leaks parked goroutines on purpose and checks the
// error carries both the counts and a stack dump naming this file.
func TestDiffDetectsLeak(t *testing.T) {
	shortSettle(t)
	before := Take()
	park := make(chan struct{})
	defer close(park)
	// Leak several goroutines so one unrelated goroutine exiting
	// concurrently (the previous test's runner) cannot mask the growth.
	started := make(chan struct{})
	for i := 0; i < 5; i++ {
		go func() {
			started <- struct{}{}
			<-park // parked until test cleanup: a deliberate leak
		}()
		<-started
	}
	err := before.Diff()
	if err == nil {
		t.Fatal("leaked goroutine not detected")
	}
	if !strings.Contains(err.Error(), "leak_test.go") {
		t.Fatalf("leak error does not include a stack dump naming the source: %v", err)
	}
}

// TestDiffWaitsForSettle checks the retry loop tolerates goroutines that
// exit shortly after the guarded work returns.
func TestDiffWaitsForSettle(t *testing.T) {
	before := Take()
	go func() { time.Sleep(20 * time.Millisecond) }()
	if err := before.Diff(); err != nil {
		t.Fatalf("slow-exit goroutine reported as leak: %v", err)
	}
}

// recorder implements TB, capturing failures.
type recorder struct {
	*testing.T
	failed bool
}

func (r *recorder) Errorf(string, ...any) { r.failed = true }

// TestCheckReportsThroughTB wires Check to a fake TB and confirms the
// cleanup path fires on a leak.
func TestCheckReportsThroughTB(t *testing.T) {
	shortSettle(t)
	park := make(chan struct{})
	defer close(park)

	rec := &recorder{T: t}
	func() {
		before := Take()
		// Leak several goroutines so one unrelated goroutine exiting
		// concurrently (e.g. a previous test's teardown) cannot mask the
		// growth.
		started := make(chan struct{})
		for i := 0; i < 5; i++ {
			go func() {
				started <- struct{}{}
				<-park
			}()
			<-started
		}
		if err := before.Diff(); err == nil {
			t.Fatal("expected leak")
		} else {
			rec.Errorf("%v", err)
		}
	}()
	if !rec.failed {
		t.Fatal("leak not reported through TB")
	}
}
