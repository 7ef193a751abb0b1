package main

import (
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a percentile resting on fewer is mostly noise.
const minTail = 10

var errFewSamples = errors.New("too few samples beyond percentile")

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// sorted samples. It refuses, with errFewSamples, unless at least
// minTail samples lie strictly beyond the selected rank; q = 0.5 is
// exempt, since a median has half the samples on either side.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.2f of no samples: %w", q, errFewSamples)
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = max(0, min(i, n-1))
	if q > 0.5 && n-1-i < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want %d: %w",
			q*100, n, n-1-i, minTail, errFewSamples)
	}
	return sorted[i], nil
}

// windowSamples is the number of samples per window: the fewest that
// leave minTail samples beyond a p95.
const windowSamples = minTail * 20

// windows splits n samples into consecutive [a, b) windows of
// windowSamples each, the last one taking the remainder.
func windows(n int) ([][2]int, error) {
	if n < windowSamples {
		return nil, fmt.Errorf("%d samples, want at least %d for one window: %w", n, windowSamples, errFewSamples)
	}
	var ws [][2]int
	for a := 0; a+windowSamples <= n; a += windowSamples {
		ws = append(ws, [2]int{a, a + windowSamples})
	}
	ws[len(ws)-1][1] = n
	return ws, nil
}

// median returns the middle value of unsorted samples (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	v, _ := percentile(s, 0.5)
	return v
}

// lowerQuartile returns the nearest-rank 0.25-quantile of unsorted
// samples (0 when empty).
func lowerQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(slices.Sorted(slices.Values(xs)), 0.25)
	return v
}

// tally counts the operations of a timed phase and the input entries
// the successful ones carried. A failed operation carries no entries:
// a rejected push never reached the sum, so it must not inflate the
// throughput.
type tally struct {
	attempted, failed, entries int64
}

func (t *tally) record(ok bool, entries int) {
	t.attempted++
	if !ok {
		t.failed++
		return
	}
	t.entries += int64(entries)
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.entries += o.entries
}

// failureFraction is failed over attempted (0 with nothing attempted).
func (t tally) failureFraction() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// span is one timed call made by the benchmark: its name, the span
// that caused it (0 for none) and its interval since the tracer began.
type span struct {
	ID, Parent int64
	Name       string
	Start, End time.Duration
}

// tracer keeps spans in memory for the whole run; they are written
// out when the benchmark ends. A nil *tracer records nothing, which is
// how the untraced phases run.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

// record stores a finished span.
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	t.finish(t.reserve(), name, parent, start, end)
}

// reserve allocates an id for a span whose children are recorded
// before it ends; finish fills it in.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{})
	return int64(len(t.spans))
}

func (t *tracer) finish(id int64, name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.base), End: end.Sub(t.base)}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// len is the number of spans recorded so far; spans[len:] of a later
// snapshot are the ones recorded since.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes maps each span id to its self time: its duration minus
// the part of its interval that its child spans cover. Children may
// overlap one another (concurrent calls) and may overrun the parent
// (clock reads on either side of a hand-off); only the union of the
// child intervals, clipped to the parent, is subtracted.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		slices.SortFunc(iv, func(a, b [2]time.Duration) int { return int(a[0] - b[0]) })
		var covered time.Duration
		cur := s.Start // end of the covered prefix
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeGauges reads the Go runtime counters the per-layer GC and
// memory metrics are built from, without stopping the world.
type runtimeGauges struct {
	samples []metrics.Sample
}

func newRuntimeGauges() *runtimeGauges {
	names := []string{
		"/memory/classes/total:bytes",
		"/memory/classes/heap/released:bytes",
		"/gc/cycles/total:gc-cycles",
		"/gc/heap/allocs:bytes",
	}
	g := &runtimeGauges{samples: make([]metrics.Sample, len(names))}
	for i, n := range names {
		g.samples[i].Name = n
	}
	return g
}

// read returns the mapped-and-retained memory in bytes, completed GC
// cycles and cumulative heap bytes allocated.
func (g *runtimeGauges) read() (footprint, cycles, allocBytes uint64) {
	metrics.Read(g.samples)
	return g.samples[0].Value.Uint64() - g.samples[1].Value.Uint64(),
		g.samples[2].Value.Uint64(), g.samples[3].Value.Uint64()
}

// memPeak tracks the highest runtime footprint seen by sample.
type memPeak struct {
	g    *runtimeGauges
	peak uint64
}

func (m *memPeak) sample() {
	if f, _, _ := m.g.read(); f > m.peak {
		m.peak = f
	}
}

func (m *memPeak) mb() float64 { return float64(m.peak) / (1 << 20) }
