package main

import (
	"sync"
	"time"
)

// timing is one operation's clock readings. An open-loop operation's
// latency runs from due, not sent: when the generator or a busy connection
// holds a request back, the wait is the server's queue seen from outside
// and must count against it (no coordinated omission).
type timing struct {
	due, sent, done time.Time
}

func (t timing) latency() time.Duration  { return t.done.Sub(t.due) }
func (t timing) lateness() time.Duration { return t.sent.Sub(t.due) }

// openLoop issues operation i at start+offsets[i] through at most conns
// concurrent senders, whatever the server's pace. do(i) performs operation
// i. stop, checked when each operation falls due, ends the loop early. It
// returns once every dispatched operation has completed, with the timing
// of each dispatched operation and their number.
func openLoop(start time.Time, offsets []time.Duration, conns int, stop func() bool, do func(i int)) ([]timing, int) {
	tm := make([]timing, len(offsets))
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				tm[i].sent = time.Now()
				do(i)
				tm[i].done = time.Now()
			}
		}()
	}
	n := 0
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		// Checked after the wait, so an answer that arrived meanwhile
		// stops the very next request.
		if stop != nil && stop() {
			break
		}
		tm[i].due = due
		next <- i
		n++
	}
	close(next)
	wg.Wait()
	return tm[:n], n
}

// closedLoop runs clients senders that each issue their next operation as
// soon as the previous one completes, until the deadline or until do
// reports there is nothing left to send, and returns when all have stopped.
func closedLoop(clients int, until time.Time, do func() bool) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) && do() {
			}
		}()
	}
	wg.Wait()
}
