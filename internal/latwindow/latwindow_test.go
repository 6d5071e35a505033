package latwindow

import (
	"testing"
	"time"
)

func TestP99NeedsMinSamples(t *testing.T) {
	var w Window
	for i := 0; i < MinSamples-1; i++ {
		w.Observe(time.Millisecond)
	}
	if _, ok := w.P99(); ok {
		t.Fatalf("p99 reported from %d samples, want at least %d", MinSamples-1, MinSamples)
	}
	w.Observe(time.Millisecond)
	if d, ok := w.P99(); !ok || d != time.Millisecond {
		t.Fatalf("P99() = %v, %v; want 1ms, true", d, ok)
	}
}

func TestP99NearestRank(t *testing.T) {
	var w Window
	// 1..100ms: the nearest-rank p99 of 100 samples is the 99th smallest.
	for i := 1; i <= 100; i++ {
		w.Observe(time.Duration(i) * time.Millisecond)
	}
	if d, _ := w.P99(); d != 99*time.Millisecond {
		t.Fatalf("p99 of 1..100ms = %v, want 99ms", d)
	}
}

func TestWindowEvictsOldest(t *testing.T) {
	var w Window
	for i := 0; i < Size; i++ {
		w.Observe(time.Hour)
	}
	// A full window of fresh 1ms samples must push every old one out.
	for i := 0; i < Size; i++ {
		w.Observe(time.Millisecond)
	}
	if d, _ := w.P99(); d != time.Millisecond {
		t.Fatalf("p99 after the window turned over = %v, want 1ms", d)
	}
}
