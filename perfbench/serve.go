package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"spkadd"
	"spkadd/internal/server"
)

const (
	frameCount     = 256
	pushesPerRound = 32
	// serveWarmRounds rounds push every frame twice, so the tenant
	// sum's structure is saturated before timing and the work per
	// round stays flat for the rest of the run.
	serveWarmRounds = 2 * frameCount / pushesPerRound
	tenant          = "perfbench"
	// spanHeader carries the client span id to the timing handler, so
	// each handler span becomes the child of the request that caused it.
	spanHeader = "X-Perfbench-Span"
)

var frameShape = shape{Rows: 1 << 16, Cols: 256, D: 8}

// serve is the serve-stream workload: the spkadd-serve handler on
// loopback HTTP, fed in rounds by GOMAXPROCS producers.
type serve struct {
	seed      uint64
	producers int
	frames    []*spkadd.Matrix
	wire      [][]byte
	counts    []int        // accepted pushes per frame on the current server
	accepted  int          // their total
	round     int          // rounds run on the current server
	snap      bytes.Buffer // the last snapshot read

	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string

	// Traced phase only.
	queueMax  int
	red0, k0  int
	firstSpan int // the timed phase's first span
}

func newServe(seed uint64) *serve {
	return &serve{seed: seed, producers: runtime.GOMAXPROCS(0)}
}

func (b *serve) setup(tr *tracer) error {
	if err := b.close(); err != nil {
		return err
	}
	b.frames = generate(frameShape, frameCount, b.seed)
	b.wire = make([][]byte, frameCount)
	for i, f := range b.frames {
		b.wire[i] = server.EncodeCSC(f)
	}
	b.counts = make([]int, frameCount)
	b.accepted, b.round = 0, 0

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening on loopback: %w", err)
	}
	b.srv = server.New(server.Config{})
	b.hs = &http.Server{Handler: &timedHandler{next: b.srv, tr: tr}}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxIdleConnsPerHost: b.producers + 1,
		DisableCompression:  true,
	}}
	b.base = "http://" + ln.Addr().String() + "/v1/tenants/" + tenant

	warm := newPhase(serveWarmRounds)
	for range serveWarmRounds {
		b.runRound(tr, warm)
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d operations failed", warm.failed, warm.attempted)
	}
	return nil
}

// timedHandler wraps the daemon's handler; with a tracer it records
// one span per request, the child of the client span that sent it.
type timedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	name := "handler.sum"
	if r.Method == http.MethodPost {
		name = "handler.push"
	}
	h.tr.record(name, parent, t0, time.Now())
}

// producerLog is one producer's share of a round.
type producerLog struct {
	tally
	push     []float64
	accepted []int // frame indices accepted
	queueMax int
	err      error
}

// runRound pushes the next pushesPerRound frames, split across the
// producers, each waiting for its reply; then it reads one wire
// snapshot and checks it covers every accepted push.
func (b *serve) runRound(tr *tracer, ph *phase) {
	roundID := tr.reserve()
	first := b.round * pushesPerRound
	logs := make([]producerLog, b.producers)
	start := time.Now()
	var wg sync.WaitGroup
	for p := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := &logs[p]
			for i := p; i < pushesPerRound; i += b.producers {
				f := (first + i) % frameCount
				d, err := b.push(f, roundID, tr)
				l.push = append(l.push, ms(d))
				l.record(err == nil, b.frames[f].NNZ())
				if err != nil {
					l.err = err
					continue
				}
				l.accepted = append(l.accepted, f)
				if tr != nil {
					l.queueMax = max(l.queueMax, b.queueDepth())
				}
			}
		}()
	}
	wg.Wait()
	entries0 := ph.entries
	for _, l := range logs {
		ph.add(l.tally)
		ph.push = append(ph.push, l.push...)
		for _, f := range l.accepted {
			b.counts[f]++
		}
		b.accepted += len(l.accepted)
		b.queueMax = max(b.queueMax, l.queueMax)
		if l.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: push:", l.err)
		}
	}
	err := b.snapshot(roundID, tr)
	end := time.Now()
	ph.record(err == nil, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: snapshot:", err)
	}
	ph.sample(ms(end.Sub(start)), end, ph.entries-entries0)
	tr.finish(roundID, "round", 0, start, end)
	b.round++
}

var errStatus = errors.New("unexpected status")

// push POSTs frame f and returns how long the producer waited for the
// 202.
func (b *serve) push(f int, parent int64, tr *tracer) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, b.base+"/deltas", bytes.NewReader(b.wire[f]))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-spkadd-delta")
	id := tr.reserve()
	if tr != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	resp, err := b.client.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("%w %d for a push", errStatus, resp.StatusCode)
		}
	}
	t1 := time.Now()
	tr.finish(id, "client.push", parent, t0, t1)
	return t1.Sub(t0), err
}

// snapshot GETs the tenant sum as a wire frame into b.snap and checks
// that it folds in every push accepted so far.
func (b *serve) snapshot(parent int64, tr *tracer) error {
	req, err := http.NewRequest(http.MethodGet, b.base+"/sum?format=wire", nil)
	if err != nil {
		return err
	}
	id := tr.reserve()
	if tr != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	defer func() { tr.finish(id, "client.snapshot", parent, t0, time.Now()) }()
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%w %d for a snapshot", errStatus, resp.StatusCode)
	}
	b.snap.Reset() // keeps its capacity: no allocation once warm
	if _, err := b.snap.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("reading snapshot: %w", err)
	}
	if k, _ := strconv.Atoi(resp.Header.Get("X-Spkadd-K")); k != b.accepted {
		return fmt.Errorf("snapshot folds in %d pushes, want %d", k, b.accepted)
	}
	return nil
}

// queueDepth is the tenant's pending pieces across its shards.
func (b *serve) queueDepth() int {
	p := b.srv.Tenant(tenant)
	if p == nil {
		return 0
	}
	n := 0
	for _, h := range p.Health() {
		n += h.Pending
	}
	return n
}

func (b *serve) measure(d time.Duration, tr *tracer) *phase {
	b.queueMax = 0
	if tr != nil {
		b.firstSpan = tr.len()
	}
	if p := b.srv.Tenant(tenant); p != nil {
		b.red0, b.k0 = p.Reductions(), p.K()
	}
	probe := startProbe()
	// Rounds allocate far more than their samples, so the sample
	// slices may grow as they go.
	ph := newPhase(1024)
	ph.pushPer = pushesPerRound
	for time.Since(ph.start) < d {
		b.runRound(tr, ph)
		probe.mem.sample()
	}
	probe.stop(ph)
	return ph
}

// verify decodes the last snapshot and compares it bit for bit with
// the dense sum of every accepted push.
func (b *serve) verify() error {
	coo, err := server.DecodeDelta(b.snap.Bytes(), 0)
	if err != nil {
		return fmt.Errorf("decoding the last snapshot: %w", err)
	}
	return checkSum(coo.ToCSC(), b.frames, b.counts)
}

// encodeReps snapshots are encoded for wire.encode_ms_per_snapshot.
const encodeReps = 5

func (b *serve) layers(ph *phase, tr *tracer, m map[string]float64, _ map[string]string) {
	rounds := float64(len(ph.lat))
	if p := b.srv.Tenant(tenant); p != nil {
		m["pool.reductions_per_round"] = float64(p.Reductions()-b.red0) / rounds
		m["pool.k_per_round"] = float64(p.K()-b.k0) / rounds
	}
	m["pool.queue_depth_max"] = float64(b.queueMax)

	var dec, csc []float64
	for _, w := range b.wire {
		t0 := time.Now()
		coo, err := server.DecodeDelta(w, 0)
		t1 := time.Now()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: decoding a frame:", err)
			break
		}
		coo.ToCSC()
		dec = append(dec, float64(t1.Sub(t0))/1e3)
		csc = append(csc, float64(time.Since(t1))/1e3)
	}
	if len(dec) == len(b.wire) {
		m["wire.decode_us_per_frame"] = median(dec)
		m["matrix.to_csc_us_per_frame"] = median(csc)
	}
	if coo, err := server.DecodeDelta(b.snap.Bytes(), 0); err == nil {
		sum := coo.ToCSC()
		enc := make([]float64, encodeReps)
		for i := range enc {
			t0 := time.Now()
			server.EncodeCSC(sum)
			enc[i] = ms(time.Since(t0))
		}
		m["wire.encode_ms_per_snapshot"] = median(enc)
	}

	spans := tr.snapshot()[b.firstSpan:]
	self := selfTimes(spans)
	var pushH, sumH, transport []float64
	for _, s := range spans {
		switch s.Name {
		case "handler.push":
			pushH = append(pushH, ms(s.End-s.Start))
		case "handler.sum":
			sumH = append(sumH, ms(s.End-s.Start))
		case "client.push":
			transport = append(transport, ms(self[s.ID]))
		}
	}
	m["server.push_handler_ms_p50"] = median(pushH)
	m["server.sum_handler_ms_p50"] = median(sumH)
	m["http.transport_ms_p50"] = median(transport)
}

func (b *serve) close() error {
	if b.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	b.client.CloseIdleConnections()
	if rep := b.srv.Drain(ctx); !rep.Clean() {
		err = errors.Join(err, fmt.Errorf("drain abandoned %d tenant(s)", rep.Abandoned))
	}
	b.srv = nil
	return err
}
