package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"ncdrf/internal/sweep"
)

// progressInterval is how often a live -progress run reports.
const progressInterval = 2 * time.Second

// progress is the -progress reporter of the sweep/curve commands: a
// periodic stderr line with done/total units, the eval stage's hit rate
// and elapsed time, so a long (possibly sharded) grid is observable
// without polluting the result stream on stdout. A nil *progress is a
// valid no-op receiver, which keeps the call sites unconditional.
type progress struct {
	w     io.Writer
	eng   *sweep.Engine
	total int
	// done counts computed units (the executor's completion hook);
	// emitted counts rows released in plan order. Rows reach the reorder
	// buffer a whole group at a time and leave it only once the plan
	// prefix before them is complete, so emitted trails done and the
	// line reports both.
	done    atomic.Int64
	emitted atomic.Int64
	start   time.Time
	stop    chan struct{}
	wg      sync.WaitGroup
}

// startProgress launches the reporter when enabled; the caller must
// close() it. The final summary line is always printed on close, so
// even a run shorter than the reporting interval shows its totals.
func startProgress(enabled bool, w io.Writer, eng *sweep.Engine, total int) *progress {
	if !enabled {
		return nil
	}
	//lint:allow wallclock -- the reporter's whole job is real elapsed time
	p := &progress{w: w, eng: eng, total: total, start: time.Now(), stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(progressInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				p.line()
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// incDone records one computed unit; it is the executor's completion
// hook, safe for concurrent use and on a nil reporter.
func (p *progress) incDone() {
	if p != nil {
		p.done.Add(1)
	}
}

// addEmitted records n emitted result rows.
func (p *progress) addEmitted(n int) {
	if p != nil {
		p.emitted.Add(int64(n))
	}
}

// close stops the ticker and prints the final line.
func (p *progress) close() {
	if p == nil {
		return
	}
	close(p.stop)
	p.wg.Wait()
	p.line()
}

func (p *progress) line() {
	done := p.done.Load()
	pct := 0.0
	if p.total > 0 {
		pct = 100 * float64(done) / float64(p.total)
	}
	// The eval stage is the only one with hits: the schedule and base
	// stages compute every request.
	rate := "-"
	if cs := p.eng.Cache().StageStats().Eval; cs.Requests() > 0 {
		rate = fmt.Sprintf("%.0f%%", 100*float64(cs.Hits+cs.DiskHits)/float64(cs.Requests()))
	}
	fmt.Fprintf(p.w, "progress: %d/%d units done (%.1f%%), %d emitted, elapsed %s, eval hit rate %s\n",
		done, p.total, pct, p.emitted.Load(),
		//lint:allow wallclock -- elapsed time on stderr, never in artifacts
		time.Since(p.start).Round(time.Second/10), rate)
}
