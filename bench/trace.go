package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"
)

// span is one traced interval: a request into a layer, or a probe phase
// that parents them. Times are nanoseconds since the tracer's epoch.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int32  `json:"parent"` // index of the parent span, -1 for a root
	Workload string `json:"workload"`
}

// maxSpans bounds the preallocated span buffer. Spans past it are counted,
// not stored; the per-layer metrics come from running sums, so nothing is
// lost from them.
const maxSpans = 1 << 17

// tracer records spans into a preallocated in-memory buffer, written out
// when the run ends. record is safe for concurrent use.
type tracer struct {
	epoch    time.Time
	workload string
	spans    []span
	n        atomic.Int64 // record calls; the first len(spans) are stored
	dropped  atomic.Int64 // spans not stored, requests past the cap included
	// parent is the span the traced workload phase's requests hang under.
	parent int32
	// drbgGen is the number of DRBG generates the Source had served before
	// the current traced request; it finds the requests that reseed.
	drbgGen atomic.Int64
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload, spans: make([]span, maxSpans), parent: -1}
}

// record stores a span and returns its index, or -1 once the buffer is
// full.
func (t *tracer) record(name string, parent int32, start, end time.Time) int32 {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: parent, Workload: t.workload}
	return int32(i)
}

// begin opens a root span to parent others; end closes it.
func (t *tracer) begin(name string) int32 {
	now := time.Now()
	return t.record(name, -1, now, now)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.epoch))
	}
}

// request traces one request into the drange Source. With the default
// policy a Generator's DRBG reseeds inline before every reseedInterval-th
// generate after instantiation, which makes the reseeding requests
// identifiable by count (checked against Stats.DRBG.Reseeds afterwards).
// Every DRBG workload has one client, so the count is exact. Request spans
// fill at most half the buffer, leaving the rest to the layer probes.
func (t *tracer) request(c *client, drbgTier bool, size int, t0, t1 time.Time) {
	name, k := "drange.read.raw", costRaw
	if drbgTier {
		name, k = "drange.read.drbg", costDRBG
		if g := t.drbgGen.Add(1) - 1; g > 0 && g%reseedInterval == 0 {
			name, k = "drange.read.reseed", costReseed
		}
	}
	c.costs[k].ns += int64(t1.Sub(t0))
	c.costs[k].bytes += int64(size)
	c.costs[k].ops++
	if t.n.Load() < maxSpans/2 {
		t.record(name, t.parent, t0, t1)
	} else {
		t.dropped.Add(1)
	}
}

// batch times n calls of fn as one span and returns the mean nanoseconds
// and heap allocations per call.
func (t *tracer) batch(name string, n int, fn func() error) (ns, allocs float64, err error) {
	return t.timed(name, func(i int) bool { return i < n }, fn)
}

// until is batch for calls slow enough to read the clock between them: it
// calls fn for d.
func (t *tracer) until(name string, d time.Duration, fn func() error) (ns, allocs float64, err error) {
	end := time.Now().Add(d)
	return t.timed(name, func(int) bool { return time.Now().Before(end) }, fn)
}

func (t *tracer) timed(name string, more func(i int) bool, fn func() error) (ns, allocs float64, err error) {
	m0 := mallocs()
	t0 := time.Now()
	n := 0
	for ; more(n); n++ {
		if err := fn(); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	t1 := time.Now()
	allocs = float64(mallocs()-m0) / float64(n)
	t.record(name, -1, t0, t1)
	return float64(t1.Sub(t0)) / float64(n), allocs, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timerOverhead is the cost of one monotonic clock read, which every
// per-call span includes once; per-command means subtract it.
func timerOverhead() float64 {
	const n = 100000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		time.Since(t0)
	}
	return float64(time.Since(t0)) / n
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	kept := min(t.n.Load(), int64(len(t.spans)))
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int64  `json:"dropped"`
		Spans    []span `json:"spans"`
	}{t.workload, t.dropped.Load(), t.spans[:kept]})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
