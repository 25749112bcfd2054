package main

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ncdrf/internal/sweep"
)

// lockedBuffer makes the reporter's writer safe to read from the test
// while the ticker goroutine may still write to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestProgressReporterJoins is the regression test for the -progress
// audit: close() must join the ticker goroutine (no leak past close)
// and always print the final summary line, even for a run far shorter
// than the reporting interval.
func TestProgressReporterJoins(t *testing.T) {
	before := runtime.NumGoroutine()
	var buf lockedBuffer
	p := startProgress(true, &buf, sweep.New(1), 7)
	for i := 0; i < 3; i++ {
		p.incDone()
	}
	p.addEmitted(1)
	p.close()

	out := buf.String()
	if !strings.Contains(out, "3/7 units done") {
		t.Errorf("final line missing done/total counts:\n%s", out)
	}
	if !strings.Contains(out, "1 emitted") {
		t.Errorf("final line missing emitted count:\n%s", out)
	}
	// The ticker goroutine must be gone; poll briefly because exiting
	// goroutines are not instantaneous from the counter's view.
	for attempt := 0; runtime.NumGoroutine() > before; attempt++ {
		if attempt > 400 {
			t.Fatalf("goroutine count %d did not return to %d after close; reporter leaked",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProgressNilReceiver: a disabled reporter is a nil pointer and
// every method must be a no-op on it — the call sites stay unconditional.
func TestProgressNilReceiver(t *testing.T) {
	p := startProgress(false, nil, nil, 0)
	if p != nil {
		t.Fatal("disabled reporter is not nil")
	}
	p.incDone()
	p.addEmitted(1)
	p.close()
}
