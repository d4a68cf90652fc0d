package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/drange"
)

// benchGeometry is the reduced device the repository's benchmarks share:
// every structural feature of the model, small enough to characterize in
// seconds.
var benchGeometry = drange.Geometry{Banks: 8, RowsPerBank: 256, ColsPerRow: 4096, SubarrayRows: 128, WordBits: 256}

// region is a characterization profiling region: rows and words per row
// scanned in each of the first banks banks.
type region struct{ rows, words, banks int }

var fullRegion = region{rows: 48, words: 8, banks: 8}

// fleet lists device serials whose profiles, characterized over fullRegion,
// fall in fleetClass. Host cost per raw bit is set by two properties of
// the selected words. The first is the per-bank RNG-cell yield: bits per
// Algorithm 2 iteration range from 20 to 27 across serials. The second is
// the weak cells that can fail under the data pattern, each costing a
// noise draw on every read: 43 to 69 in the 16 words, which alone moved
// raw throughput by ±20% between devices of equal yield. The fleet, found
// by scanning serials 1 to 460, holds only devices that agree on both. The
// seed picks the first device's index; pool members take the following
// ones.
var fleet = []uint64{11, 59, 88, 91, 102, 178, 283, 381, 393, 423}

// deviceClass is what every fleet device shares.
type deviceClass struct {
	yield      []int  // RNG bits per selected bank, in profile order
	vulnerable [2]int // inclusive range of failure-prone weak cells in the selected words
}

var fleetClass = &deviceClass{yield: []int{4, 4, 4, 3, 3, 3, 2, 2}, vulnerable: [2]int{47, 49}}

// op is one request of a client's cycle.
type op struct {
	size int
	raw  bool // ReadRaw rather than Read
}

// workload is one traffic mix. Every workload is a closed loop: each of its
// clients sends the next request of its cycle only after the previous one
// returned.
type workload struct {
	name    string
	devices int
	shards  int
	clients int
	// health attaches the online health tests (implied by drbg);
	// vonNeumann attaches a von Neumann corrector to the raw tier.
	health, drbg, vonNeumann bool
	cycle                    []op
	// rawBytes is the size of the raw harvests the workload's requests
	// cause: its raw-tier request size, or the DRBG seed size. The layer
	// probes use it as their buffer size.
	rawBytes int
	// setups is how often a run repeats set-up; setup_s is the median.
	// The pool characterizes four devices per set-up, so it repeats less
	// to keep a run within the time budget.
	setups int
}

// drbgSeedBytes is the ChaCha20 DRBG seed length, and reseedInterval the
// number of DRBG requests DRBGPolicy{} serves per seed.
const (
	drbgSeedBytes  = 32
	reseedInterval = 1024
)

var workloads = []*workload{
	{name: "raw-stream", devices: 1, shards: 4, clients: 1,
		cycle: []op{{size: 4096}}, rawBytes: 4096, setups: 3},
	{name: "drbg-keys", devices: 1, shards: 4, clients: 1, health: true, drbg: true,
		cycle: []op{{size: 32}}, rawBytes: drbgSeedBytes, setups: 3},
	{name: "pool-monitored", devices: 4, shards: 2, clients: 2, health: true,
		cycle: []op{{size: 1024}}, rawBytes: 1024, setups: 2},
	{name: "mixed-tier", devices: 1, shards: 4, clients: 1, health: true, drbg: true, vonNeumann: true,
		cycle: mixedCycle(), rawBytes: 1024, setups: 3},
}

// mixedCycle is 63 DRBG reads of 32 B, then one raw read of 1 KiB.
func mixedCycle() []op {
	c := make([]op, 64)
	for i := range c {
		c[i] = op{size: 32}
	}
	c[63] = op{size: 1024, raw: true}
	return c
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// readsRaw reports whether the workload's cycle reads the raw tier.
func (w *workload) readsRaw() bool {
	for _, o := range w.cycle {
		if o.raw || !w.drbg {
			return true
		}
	}
	return false
}

func (w *workload) serials(seed int64) []uint64 {
	n := int64(len(fleet))
	out := make([]uint64, w.devices)
	for i := range out {
		out[i] = fleet[((seed+int64(i))%n+n)%n]
	}
	return out
}

func (w *workload) options() []drange.Option {
	opts := []drange.Option{drange.WithShards(w.shards)}
	switch {
	case w.drbg:
		opts = append(opts, drange.WithDRBG(drange.DRBGPolicy{}))
	case w.health:
		opts = append(opts, drange.WithHealthTests(drange.HealthTestPolicy{}))
	}
	if w.vonNeumann {
		opts = append(opts, drange.WithPostprocess(drange.VonNeumann()))
	}
	return opts
}

// open starts the workload's Source over the profiles: a Generator for one
// device, a Pool otherwise.
func (w *workload) open(ctx context.Context, profiles []*drange.Profile) (drange.Source, error) {
	if w.devices == 1 {
		return drange.Open(ctx, profiles[0], w.options()...)
	}
	p, err := drange.OpenPool(ctx, profiles, w.options()...)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func characterize(ctx context.Context, serial uint64, r region) (*drange.Profile, error) {
	return drange.Characterize(ctx,
		drange.WithManufacturer("A"),
		drange.WithSerial(serial),
		drange.WithDeterministic(true),
		drange.WithGeometry(benchGeometry),
		drange.WithProfilingRegion(r.rows, r.words, r.banks),
		drange.WithSamples(300),
		drange.WithTolerance(0.4),
		drange.WithMaxBiasDelta(0.03),
		drange.WithScreenIterations(25),
	)
}

// config is one run's settings.
type config struct {
	w       *workload
	seed    int64
	warmup  time.Duration
	measure time.Duration
	// probe is how long the engine and serving-tier layer probes run.
	probe  time.Duration
	trace  bool
	region region
	// class is what every profile must share; nil skips the check (for
	// regions the fleet was not selected over).
	class *deviceClass
}

// defaultConfig warms up for 1 s, after the checks have already read 64 KiB
// from the Source. On a loaded 2-vCPU host a pool run spends 40 s in set-up,
// and the full set of runs must fit a fixed time budget.
func defaultConfig(w *workload, seed int64, measure time.Duration, trace bool) config {
	return config{w: w, seed: seed, warmup: time.Second, measure: measure, probe: time.Second, trace: trace, region: fullRegion, class: fleetClass}
}

// windows is the number of equal windows a measurement is split into. The
// end-to-end read metrics come from the fastest window (see phase.fastest).
const windows = 10

// cost accumulates traced request time and bytes.
type cost struct{ ns, bytes, ops int64 }

// Indices into client.costs.
const (
	costRaw = iota
	costDRBG
	costReseed
)

// client is one closed-loop client: its cycle of requests and read buffers,
// and its private accounting, merged after the run.
type client struct {
	cycle       []op
	bufs        [][]byte
	lat         [windows]Histogram
	bytes       [windows]int64
	ops, failed int64
	err         error
	costs       [3]cost // traced runs only
}

func newClient(cycle []op) *client {
	c := &client{cycle: cycle, bufs: make([][]byte, len(cycle))}
	for i, o := range cycle {
		c.bufs[i] = make([]byte, o.size)
	}
	return c
}

// drive runs the workload's clients against src for d and returns their
// accounting. With tr non-nil every request is traced.
func (w *workload) drive(src drange.Source, d time.Duration, tr *tracer) []*client {
	clients := make([]*client, w.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		c := newClient(w.cycle)
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(src, w.drbg, start, d, tr)
		}()
	}
	wg.Wait()
	return clients
}

// run sends the client's requests in turn, each after the previous one
// returned, until d has passed since start. With drbgOn, Read requests are
// served by the DRBG tier. A request's latency runs from the end of the
// previous one, so each request costs one read of the monotonic clock: on
// a KVM guest a clock read takes 65-85 ns, a quarter of a DRBG read.
func (c *client) run(src drange.Source, drbgOn bool, start time.Time, d time.Duration, tr *tracer) {
	last := time.Since(start)
	for i := 0; last < d; i = (i + 1) % len(c.cycle) {
		o := c.cycle[i]
		var err error
		if o.raw {
			_, err = src.ReadRaw(c.bufs[i])
		} else {
			_, err = src.Read(c.bufs[i])
		}
		now := time.Since(start)
		lat := now - last
		last = now
		c.ops++
		if err != nil {
			c.failed++
			if c.err == nil {
				c.err = err
			}
			continue
		}
		win := min(int(now*windows/d), windows-1)
		c.lat[win].Record(int64(lat))
		c.bytes[win] += int64(o.size)
		if tr != nil {
			tr.request(c, drbgOn && !o.raw, o.size, start.Add(now-lat), start.Add(now))
		}
	}
}

// phase summarizes one drive.
type phase struct {
	lat         [windows]Histogram
	rates       []float64 // bytes per second in each window
	bytes       int64
	ops, failed int64
	err         error
	costs       [3]cost
}

func summarize(clients []*client, d time.Duration) *phase {
	p := &phase{}
	var win [windows]int64
	for _, c := range clients {
		for i, b := range c.bytes {
			p.lat[i].Merge(&c.lat[i])
			win[i] += b
			p.bytes += b
		}
		p.ops += c.ops
		p.failed += c.failed
		if p.err == nil {
			p.err = c.err
		}
		for i, k := range c.costs {
			p.costs[i].ns += k.ns
			p.costs[i].bytes += k.bytes
			p.costs[i].ops += k.ops
		}
	}
	for _, b := range win {
		p.rates = append(p.rates, float64(b)/(d.Seconds()/windows))
	}
	return p
}

// fastest returns the window that served the most bytes. On a host whose
// physical cores are shared with other tenants, their load slows this
// CPU-bound program by up to half for stretches of 10 to 60 seconds, and
// never speeds it up. The fastest window is the least disturbed one: over
// ten seeds on such a host (a 2-vCPU KVM guest), its median latency spread
// across runs half as much as the median window's, and its rate up to 40%
// less.
func (p *phase) fastest() int {
	best := 0
	for i, r := range p.rates {
		if r > p.rates[best] {
			best = i
		}
	}
	return best
}

// latency returns the q-quantile of request latency over the whole phase,
// in microseconds.
func (p *phase) latency(q float64) float64 {
	var all Histogram
	for i := range p.lat {
		all.Merge(&p.lat[i])
	}
	return float64(all.Quantile(q)) / 1e3
}

// report is one run's outcome.
type report struct {
	endToEnd, layers  map[string]metric
	attempted, failed int64
	failedChecks      []string
	tracer            *tracer
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failedChecks = append(r.failedChecks, fmt.Sprintf(format, args...))
	}
}

func (r *report) putLayer(name string, v float64, unit string) {
	r.layers[name] = metric{v, unit}
}

func (r *report) count(p *phase) {
	r.attempted += p.ops
	r.failed += p.failed
}

// run executes one workload run: set-up, correctness checks, warm-up,
// measurement and, for traced runs, the traced phase and layer probes.
func run(ctx context.Context, cfg config) (*report, error) {
	w := cfg.w
	rep := &report{endToEnd: map[string]metric{}, layers: map[string]metric{}}
	t := time.Now()
	profiles, src, err := setup(ctx, cfg, rep)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	logPhase("set-up", time.Since(t))

	t = time.Now()
	if err := checkStreams(ctx, cfg, profiles, src, rep); err != nil {
		return nil, err
	}
	logPhase("checks", time.Since(t))

	warm := summarize(w.drive(src, cfg.warmup, nil), cfg.warmup)
	rep.count(warm)
	meas := summarize(w.drive(src, cfg.measure, nil), cfg.measure)
	rep.count(meas)
	best := meas.fastest()
	rep.endToEnd["read_MBps"] = metric{meas.rates[best] / 1e6, "MB/s"}
	rep.endToEnd["read_p50_us"] = metric{float64(meas.lat[best].Quantile(0.5)) / 1e3, "us"}
	rss, err := maxRSSMB()
	if err != nil {
		return nil, err
	}
	rep.endToEnd["max_rss_MB"] = metric{rss, "MB"}

	st := src.Stats()
	rep.endToEnd["sim_Mbps"] = metric{st.AggregateThroughputMbps, "sim-Mb/s"}
	rep.endToEnd["sim_latency64_ns"] = metric{st.Latency64NS, "sim-ns"}
	nj, err := energyPerBit(ctx, profiles[0])
	if err != nil {
		return nil, err
	}
	rep.endToEnd["sim_nJ_per_bit"] = metric{nj, "sim-nJ/bit"}

	if cfg.trace {
		t = time.Now()
		if err := traceLayers(ctx, cfg, profiles, src, meas, rep); err != nil {
			return nil, err
		}
		logPhase("traced phase and layer probes", time.Since(t))
	}
	st = src.Stats()
	rep.check((st.TierRaw.Bytes+st.TierDRBG.Bytes)*8 == st.BitsDelivered,
		"tier bytes (%d raw + %d drbg) x 8 != %d bits delivered", st.TierRaw.Bytes, st.TierDRBG.Bytes, st.BitsDelivered)
	for _, p := range []*phase{warm, meas} {
		rep.check(p.failed == 0, "%d of %d reads failed, first: %v", p.failed, p.ops, p.err)
	}
	return rep, nil
}

// setup characterizes the workload's devices and opens its Source, as
// often as the workload repeats set-up, and records the timings. It
// returns the first set-up's profiles and the last set-up's Source.
func setup(ctx context.Context, cfg config, rep *report) ([]*drange.Profile, drange.Source, error) {
	w := cfg.w
	serials := w.serials(cfg.seed)
	var setupS, charS, openMS []float64
	var profiles []*drange.Profile
	var src drange.Source
	fail := func(err error) ([]*drange.Profile, drange.Source, error) {
		if src != nil {
			src.Close()
		}
		return nil, nil, err
	}
	for i := 0; i < w.setups; i++ {
		if src != nil {
			src.Close()
			src = nil
		}
		t0 := time.Now()
		ps := make([]*drange.Profile, len(serials))
		for j, serial := range serials {
			tc := time.Now()
			p, err := characterize(ctx, serial, cfg.region)
			if err != nil {
				return fail(err)
			}
			charS = append(charS, time.Since(tc).Seconds())
			ps[j] = p
		}
		to := time.Now()
		var err error
		src, err = w.open(ctx, ps)
		if err != nil {
			return fail(err)
		}
		openMS = append(openMS, float64(time.Since(to))/1e6)
		setupS = append(setupS, time.Since(t0).Seconds())
		// Collect each set-up's garbage before the next, so that the peak
		// RSS reflects one set-up rather than when the collector ran.
		runtime.GC()
		if profiles == nil {
			profiles = ps
			continue
		}
		for j := range ps {
			rep.check(ps[j].Checksum == profiles[j].Checksum, "characterizing serial %d twice gave different profiles", serials[j])
		}
	}
	rep.endToEnd["setup_s"] = metric{median(setupS), "s"}
	rep.putLayer("drange.characterize_s", median(charS), "s")
	rep.putLayer("drange.open_ms", median(openMS), "ms")
	return profiles, src, nil
}

// energyPerBit is the Section 7.3 energy estimate over the profile's
// selections, from a sequential Generator.
func energyPerBit(ctx context.Context, p *drange.Profile) (float64, error) {
	src, err := drange.Open(ctx, p)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	return src.(*drange.Generator).EstimateEnergyPerBit(200)
}

// logPhase reports a phase's wall time on standard error.
func logPhase(name string, d time.Duration) {
	fmt.Fprintf(os.Stderr, "bench: %s took %.2fs\n", name, d.Seconds())
}

func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
