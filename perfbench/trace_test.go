package main

import (
	"testing"
	"time"
)

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{name: "root", start: at(0), end: at(100), parent: -1},
		{name: "a", start: at(10), end: at(40), parent: 0}, // overlaps b
		{name: "b", start: at(30), end: at(60), parent: 0},
		{name: "c", start: at(80), end: at(90), parent: 0},
		{name: "a.child", start: at(15), end: at(20), parent: 1},
		{name: "late", start: at(95), end: at(120), parent: 0}, // runs past its parent
	}
	self := selfTimes(spans)
	// Root: 100 − (10..60 merged = 50) − (80..90 = 10) − (95..100 = 5) = 35.
	want := []time.Duration{35, 25, 30, 10, 5, 25}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("%s self %v, want %v", spans[i].name, self[i], w*time.Millisecond)
		}
	}
	rows := summarize(spans)
	for _, r := range rows {
		if r.name == "root" && (r.count != 1 || r.share != 1) {
			t.Errorf("root row %+v", r)
		}
		if r.name == "b" && r.share != 0.3 {
			t.Errorf("b share %v, want 0.3", r.share)
		}
	}
}
