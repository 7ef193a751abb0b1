package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"spkadd"
)

const (
	kaddK = 32
	// kaddWarmCalls calls size the Adder's scratch before timing; a
	// warm Adder makes no allocations per call.
	kaddWarmCalls = 64
	// kaddSpeedupCalls calls per block and kaddSpeedupBlocks blocks of
	// each thread count are interleaved for sched.speedup_nproc.
	kaddSpeedupCalls  = 20
	kaddSpeedupBlocks = 5
	kaddAllocCalls    = 100
)

// kadd is the kadd-er and kadd-rmat workloads: one caller adding the
// same k inputs with a reused Adder, waiting for each sum.
type kadd struct {
	shape   shape
	seed    uint64
	inputs  []*spkadd.Matrix
	entries int // input entries per call
	ad      *spkadd.Adder
	wantNNZ int            // output entries, from the warm-up
	last    *spkadd.Matrix // last successful timed result (owned by ad)
	// Traced phase only.
	stats    *spkadd.OpStats
	sym, num []float64
}

func newKadd(s shape, seed uint64) *kadd { return &kadd{shape: s, seed: seed} }

func (b *kadd) setup(tr *tracer) error {
	b.inputs = generate(b.shape, kaddK, b.seed)
	b.entries = nnzSum(b.inputs)
	b.ad = spkadd.NewAdder()
	b.last = nil
	for range kaddWarmCalls {
		r, err := b.call(spkadd.Options{}, tr)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		b.wantNNZ = r.NNZ()
	}
	return nil
}

// call makes one Add call; traced calls go through AddTimed and keep
// the phase split.
func (b *kadd) call(opt spkadd.Options, tr *tracer) (*spkadd.Matrix, error) {
	if tr == nil {
		return b.ad.Add(b.inputs, opt)
	}
	t0 := time.Now()
	r, pt, err := b.ad.AddTimed(b.inputs, opt)
	tr.record("adder.add", 0, t0, time.Now())
	if err == nil {
		b.sym = append(b.sym, ms(pt.Symbolic))
		b.num = append(b.num, ms(pt.Numeric))
	}
	return r, err
}

func (b *kadd) measure(d time.Duration, tr *tracer) *phase {
	capacity := int(d/time.Millisecond) + 1024 // calls take well over 1 ms
	opt := spkadd.Options{}
	if tr != nil {
		b.stats = new(spkadd.OpStats)
		opt.Stats = b.stats
		b.sym, b.num = make([]float64, 0, capacity), make([]float64, 0, capacity)
	}
	var firstErr error
	probe := startProbe()
	ph := newPhase(capacity)
	deadline := ph.start.Add(d)
	for i := 0; ; i++ {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		r, err := b.call(opt, tr)
		t1 := time.Now()
		ok := err == nil && r.NNZ() == b.wantNNZ
		entries := int64(0)
		if ok {
			b.last = r
			entries = int64(b.entries)
		} else if firstErr == nil {
			firstErr = errors.Join(err, fmt.Errorf("call %d: %d output entries, want %d", i, nnzOf(r), b.wantNNZ))
		}
		ph.sample(ms(t1.Sub(t0)), t1, entries)
		ph.record(ok, b.entries)
		if i%64 == 0 {
			probe.mem.sample()
		}
	}
	probe.stop(ph)
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: kadd:", firstErr)
	}
	return ph
}

func nnzOf(m *spkadd.Matrix) int {
	if m == nil {
		return 0
	}
	return m.NNZ()
}

func (b *kadd) verify() error {
	if b.last == nil {
		return errors.New("no successful call to check")
	}
	return checkSum(b.last, b.inputs, nil)
}

func (b *kadd) layers(ph *phase, tr *tracer, m map[string]float64, labels map[string]string) {
	calls := float64(ph.attempted)
	in := calls * float64(b.entries)
	st := b.stats
	m["engine.symbolic_ms"] = median(b.sym)
	m["engine.numeric_ms"] = median(b.num)
	m["kernel.probes_per_entry"] = float64(st.HashProbes.Load()+st.SPATouches.Load()) / in
	m["kernel.out_per_in"] = float64(st.EntriesMoved.Load()) / in
	// The paper's I/O model: read every input entry and column pointer
	// once, write every output entry and column pointer once; 4-byte
	// row index plus 8-byte value per entry.
	cols := float64(b.shape.Cols + 1)
	m["kernel.bytes_moved_computed"] = float64(b.entries)*12 + kaddK*cols*8 + float64(b.wantNNZ)*12 + cols*8
	m["sched.regions_per_call"] = float64(st.SchedRegions.Load()) / calls
	m["sched.load_imbalance"] = st.LoadImbalance()
	m["sched.steals_per_call"] = float64(st.Steals.Load()) / calls
	if v, err := b.speedup(); err == nil {
		m["sched.speedup_nproc"] = v
	}
	if v, err := b.allocsPerCall(); err == nil {
		m["adder.allocs_per_call"] = v
	}

	labels["kernel.bytes_moved_computed"] = "computed from entry counts, not measured"
	labels["engine.algorithm"] = kernelFamily(st)
	if e, ok := st.EngineUsed(); ok {
		labels["engine.phases"] = e.String()
	}
}

// kernelFamily names the kernel the planner ran, read off which
// kernel counters moved.
func kernelFamily(st *spkadd.OpStats) string {
	switch {
	case st.HashProbes.Load() > 0:
		return "Hash"
	case st.SPATouches.Load() > 0:
		return "SPA"
	case st.HeapOps.Load() > 0:
		return "Heap"
	}
	return "other"
}

// speedup returns the median call time at Threads=1 over the median
// at Threads=GOMAXPROCS on the same inputs, interleaving blocks of the
// two so host drift affects both alike.
func (b *kadd) speedup() (float64, error) {
	n := runtime.GOMAXPROCS(0)
	if n == 1 {
		return 1, nil
	}
	var one, all []float64
	for range kaddSpeedupBlocks {
		for _, t := range []int{1, n} {
			for range kaddSpeedupCalls {
				t0 := time.Now()
				if _, err := b.ad.Add(b.inputs, spkadd.Options{Threads: t}); err != nil {
					return 0, err
				}
				if t == 1 {
					one = append(one, ms(time.Since(t0)))
				} else {
					all = append(all, ms(time.Since(t0)))
				}
			}
		}
	}
	return median(one) / median(all), nil
}

// allocsPerCall counts heap objects allocated per untraced Add call.
func (b *kadd) allocsPerCall() (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range kaddAllocCalls {
		if _, err := b.ad.Add(b.inputs, spkadd.Options{}); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / kaddAllocCalls, nil
}

func (b *kadd) close() error { return nil }
