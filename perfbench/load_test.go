package main

import (
	"testing"
	"time"
)

// A server slower than the offered rate makes every later request wait for
// a connection; the open loop must charge that wait to the request, so its
// latency runs from the due time, not from the moment it was sent.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	offs := schedule(200, 50*time.Millisecond) // 10 requests, 5 ms apart
	if len(offs) != 10 || offs[1] != 5*time.Millisecond {
		t.Fatalf("schedule = %v", offs)
	}
	tm, n := openLoop(time.Now(), offs, 1, nil, func(int) { time.Sleep(service) })
	if n != len(offs) {
		t.Fatalf("dispatched %d of %d", n, len(offs))
	}
	for i, x := range tm {
		if x.due.IsZero() || x.sent.Before(x.due) || x.done.Before(x.sent) {
			t.Fatalf("request %d: due %v sent %v done %v out of order", i, x.due, x.sent, x.done)
		}
		// With one connection, request i completes no earlier than
		// (i+1)·service after the start and was due i·5ms after it.
		min := time.Duration(i+1)*service - offs[i]
		if x.latency() < min {
			t.Errorf("request %d latency %v < %v: timed from send, not due", i, x.latency(), min)
		}
		if i > 0 && x.lateness() < time.Duration(i)*service-offs[i]-2*time.Millisecond {
			t.Errorf("request %d lateness %v does not show the queue", i, x.lateness())
		}
	}
	if tm[9].latency() < 150*time.Millisecond {
		t.Errorf("last request latency %v: the backlog was not counted", tm[9].latency())
	}
}

func TestOpenLoopStop(t *testing.T) {
	checks := 0
	_, n := openLoop(time.Now(), schedule(1000, 20*time.Millisecond), 1,
		func() bool { checks++; return checks > 3 }, func(int) {})
	if n != 3 {
		t.Fatalf("dispatched %d after stop; want 3", n)
	}
}
