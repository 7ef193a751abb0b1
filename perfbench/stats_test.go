package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// Nearest rank: p95 of 200 samples is the 190th, leaving 10 above.
	v, err := percentile(ramp(200), 0.95)
	if err != nil || v != 190 {
		t.Fatalf("p95 of 200 = %v, %v; want 190", v, err)
	}
	// 199 samples leave only 9 beyond the p95 rank.
	if _, err := percentile(ramp(199), 0.95); !errors.Is(err, errFewSamples) {
		t.Fatalf("p95 of 199 samples: err = %v, want errFewSamples", err)
	}
	if _, err := percentile(ramp(999), 0.99); !errors.Is(err, errFewSamples) {
		t.Fatalf("p99 of 999 samples: err = %v, want errFewSamples", err)
	}
	if v, err := percentile(ramp(5), 0.5); err != nil || v != 3 {
		t.Fatalf("p50 of 5 = %v, %v; want 3", v, err)
	}
	if _, err := percentile(nil, 0.5); !errors.Is(err, errFewSamples) {
		t.Fatalf("p50 of nothing: err = %v, want errFewSamples", err)
	}
}

func TestFailureFraction(t *testing.T) {
	var a, b tally
	for i := range 30 {
		a.record(i%10 != 0, 7) // 3 of 30 fail
	}
	for range 10 {
		b.record(true, 7)
	}
	a.add(b)
	if a.attempted != 40 || a.failed != 3 || a.entries != 37*7 {
		t.Fatalf("tally = %+v, want 40 attempted, 3 failed, %d entries", a, 37*7)
	}
	if got := a.failureFraction(); got != 3.0/40 {
		t.Fatalf("failure fraction = %v, want %v", got, 3.0/40)
	}
	if got := (tally{}).failureFraction(); got != 0 {
		t.Fatalf("empty failure fraction = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "round", Start: at(0), End: at(10)},
		// Overlapping children cover [1,5); the last overruns the
		// parent and covers only [8,10) of it.
		{ID: 2, Parent: 1, Start: at(1), End: at(3)},
		{ID: 3, Parent: 1, Start: at(2), End: at(5)},
		{ID: 4, Parent: 1, Start: at(8), End: at(12)},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 3, Start: at(3), End: at(4)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: at(4), 2: at(2), 3: at(2), 4: at(4), 5: at(1)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

// TestRejectedPushesExcluded runs serve-stream rounds against a stub
// daemon that answers 429 to every third push: those pushes count as
// failures, carry no entries into entries_per_s, and stay out of the
// sum the snapshot is checked against.
func TestRejectedPushesExcluded(t *testing.T) {
	var mu sync.Mutex
	pushes, accepted := 0, 0
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.Method == http.MethodPost {
			pushes++
			if pushes%3 == 0 {
				w.WriteHeader(http.StatusTooManyRequests)
				return
			}
			accepted++
			w.WriteHeader(http.StatusAccepted)
			return
		}
		w.Header().Set("X-Spkadd-K", strconv.Itoa(accepted))
		w.WriteHeader(http.StatusOK)
	}))
	defer stub.Close()

	b := newServe(1)
	b.producers = 2
	b.frames = generate(shape{Rows: 64, Cols: 8, D: 2}, frameCount, 1)
	b.wire = make([][]byte, frameCount)
	for i := range b.wire {
		b.wire[i] = []byte(fmt.Sprint(i))
	}
	b.counts = make([]int, frameCount)
	b.client = stub.Client()
	b.base = stub.URL

	ph := newPhase(0)
	const rounds = 3
	for range rounds {
		b.runRound(nil, ph)
	}
	n := rounds * pushesPerRound
	if ph.attempted != int64(n+rounds) || ph.failed != int64(n/3) {
		t.Fatalf("attempted %d, failed %d; want %d, %d", ph.attempted, ph.failed, n+rounds, n/3)
	}
	if b.accepted != accepted || b.accepted != n-n/3 {
		t.Fatalf("accepted %d, stub accepted %d, want %d", b.accepted, accepted, n-n/3)
	}
	got := 0
	for f, c := range b.counts {
		got += c * b.frames[f].NNZ()
	}
	if int64(got) != ph.entries {
		t.Fatalf("entries counted %d, but accepted frames carry %d", ph.entries, got)
	}
	if len(ph.lat) != rounds || len(ph.push) != n {
		t.Fatalf("%d round and %d push samples, want %d and %d", len(ph.lat), len(ph.push), rounds, n)
	}
	want := float64(got) / ph.ends[rounds-1].Seconds()
	if r := ph.rate(0, rounds); r != want {
		t.Fatalf("entries_per_s = %v, want the accepted frames' %d entries per second, %v", r, got, want)
	}
}

func TestWindowsTileSamples(t *testing.T) {
	if _, err := windows(windowSamples - 1); !errors.Is(err, errFewSamples) {
		t.Fatalf("windows(%d): err = %v, want errFewSamples", windowSamples-1, err)
	}
	ws, err := windows(3*windowSamples + 17)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 200}, {200, 400}, {400, 617}}
	if fmt.Sprint(ws) != fmt.Sprint(want) {
		t.Fatalf("windows = %v, want %v", ws, want)
	}
}

// TestBurstMovesOneWindow checks the windowed figures: a burst of slow
// samples covering one window of five leaves every median unchanged.
func TestBurstMovesOneWindow(t *testing.T) {
	ph := newPhase(0)
	now := ph.start
	for i := range 5 * windowSamples {
		lat := 2.0 + float64(i%20)/10 // 2.0 .. 3.9 ms in every window
		if i >= 2*windowSamples && i < 3*windowSamples {
			lat *= 4
		}
		now = now.Add(time.Duration(lat * float64(time.Millisecond)))
		ph.sample(lat, now, 100)
	}
	e2e, err := ph.endToEnd(0)
	if err != nil {
		t.Fatal(err)
	}
	// Per window of 200: p50 is the 100th sample in sorted order.
	if e2e["latency_ms_p50"] != 2.9 || e2e["latency_ms_p95"] != 3.8 || e2e["push_ms_p50"] != 2.9 {
		t.Fatalf("windowed figures moved by the burst: %v", e2e)
	}
	calm := 100 / (2.95 / 1e3) // mean sample 2.95 ms
	if r := e2e["entries_per_s"]; r < calm*0.999 || r > calm*1.001 {
		t.Fatalf("entries_per_s = %v, want %v", r, calm)
	}
}

// TestP95LowerQuartile checks latency_ms_p95: slow tails in five
// windows of eight (host contention over most of the run) leave it
// unchanged, while a tail in every window (the program) moves it.
func TestP95LowerQuartile(t *testing.T) {
	p95 := func(slow func(window int) bool) float64 {
		ph := newPhase(0)
		now := ph.start
		for i := range 8 * windowSamples {
			lat := 2.0 + float64(i%20)/10 // 2.0 .. 3.9 ms in every window
			if i%10 == 0 && slow(i/windowSamples) {
				lat = 7 // 10 % of the window's calls twice as slow as the rest
			}
			now = now.Add(time.Duration(lat * float64(time.Millisecond)))
			ph.sample(lat, now, 100)
		}
		e2e, err := ph.endToEnd(0)
		if err != nil {
			t.Fatal(err)
		}
		return e2e["latency_ms_p95"]
	}
	if got := p95(func(w int) bool { return w%8 < 5 }); got != 3.8 {
		t.Fatalf("tails in 5 of 8 windows: latency_ms_p95 = %v, want 3.8", got)
	}
	if got := p95(func(int) bool { return true }); got != 7 {
		t.Fatalf("tails in every window: latency_ms_p95 = %v, want 7", got)
	}
}
