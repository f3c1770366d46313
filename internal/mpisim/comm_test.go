package mpisim

import (
	"runtime"
	"sync"
	"testing"
)

// Abort must release payload memory — queued halo buffers and
// reducer contributions — and drop sends into a dead communicator so no
// rank can consume a message from a dead generation.
func TestAbortReleasesMailboxAndReducer(t *testing.T) {
	c := NewComm(2, testNet())
	r0 := c.NewRank(0)
	r0.Send(1, 1, make([]float64, 1024))
	r0.Send(1, 2, make([]float64, 1024))

	// One rank parked inside Allreduce so the reducer holds its part.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() != errAborted {
				t.Errorf("parked Allreduce did not panic errAborted")
			}
		}()
		r0.Allreduce(make([]float64, 512))
	}()
	// Wait until the contribution is registered, then abort.
	for {
		c.red.mu.Lock()
		n := c.red.count
		c.red.mu.Unlock()
		if n == 1 {
			break
		}
		runtime.Gosched()
	}
	c.Abort()
	wg.Wait()

	c.boxes[1].mu.Lock()
	if c.boxes[1].queue != nil {
		t.Fatalf("abort left %d messages queued", len(c.boxes[1].queue))
	}
	c.boxes[1].mu.Unlock()
	c.red.mu.Lock()
	for r, p := range c.red.parts {
		if p != nil {
			t.Fatalf("abort left reducer part of rank %d (%d floats)", r, len(p))
		}
	}
	// Completed-generation slots are kept (stragglers of a finished
	// collective still collect their result under abort); only the pending
	// contributions must be released.
	if c.red.count != 0 {
		t.Fatalf("abort left reducer state: count=%d", c.red.count)
	}
	c.red.mu.Unlock()

	// A late send into the dead communicator is dropped, not queued.
	r0.Send(1, 3, []float64{1})
	c.boxes[1].mu.Lock()
	defer c.boxes[1].mu.Unlock()
	if len(c.boxes[1].queue) != 0 {
		t.Fatalf("send into dead communicator was queued")
	}
}
