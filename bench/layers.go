package main

import (
	"context"
	"fmt"
	"time"

	"repro/drange"
	"repro/internal/core"
	"repro/internal/drbg"
	"repro/internal/health"
	"repro/internal/memctrl"
	"repro/internal/postproc"
	"repro/internal/profiler"
)

// Probe sizes: enough work per probe for a stable mean on a small host,
// little enough that a traced run stays within its time budget. The
// engine and serving-tier probes run for config.probe instead.
const (
	trngProbeBytes = 64 << 10
	memctrlSamples = 200
	identifyBanks  = 2
	ingestPasses   = 16
	fillRowCalls   = 5000
	chachaCalls    = 200000
)

// unitCosts are the probed per-unit costs the attribution adds up, in ns.
type unitCosts struct {
	engineBit, healthBit, vnBit float64 // per raw input bit
	vnYield                     float64
	generate, reseed            float64 // per ChaCha call
}

// traceLayers runs the traced phase of a -trace 1 run: the workload again
// with every request traced, then one probe per layer, timed from outside
// through the layer's public functions on the buffer sizes the workload
// uses. It fills rep.layers.
func traceLayers(ctx context.Context, cfg config, profiles []*drange.Profile, src drange.Source, meas *phase, rep *report) error {
	w := cfg.w
	tr := newTracer(w.name)
	rep.tracer = tr

	gen0, reseeds0 := drbgCounts(src)
	tr.drbgGen.Store(gen0)
	tr.parent = tr.begin("workload." + w.name)
	traced := summarize(w.drive(src, cfg.measure, tr), cfg.measure)
	tr.end(tr.parent)
	tr.parent = -1
	rep.count(traced)
	rep.check(traced.failed == 0, "%d of %d traced reads failed, first: %v", traced.failed, traced.ops, traced.err)
	_, reseeds := drbgCounts(src)
	rep.check(reseeds-reseeds0 == traced.costs[costReseed].ops, "traced phase: Stats counts %d reseeds, the %d-request cadence %d", reseeds-reseeds0, reseedInterval, traced.costs[costReseed].ops)
	rep.putLayer("trace.overhead_frac", float64(meas.bytes)/float64(traced.bytes)-1, "ratio")
	rep.putLayer("drange.read_p99_us", traced.latency(0.99), "us")

	st, err := newStack(profiles[0])
	if err != nil {
		return err
	}
	if err := probeSetupPath(st, tr, rep); err != nil {
		return err
	}
	var uc unitCosts
	raw, err := probeHarvest(ctx, cfg, st, tr, rep, &uc)
	if err != nil {
		return err
	}
	if err := probeScreening(raw, w.rawBytes, tr, rep, &uc); err != nil {
		return err
	}
	if err := probeChaCha(tr, rep, &uc); err != nil {
		return err
	}
	if err := probeServing(ctx, cfg, profiles[0], src, tr, rep); err != nil {
		return err
	}

	// Attribution: the probed lower layers' cost of the traced requests,
	// against what the requests took. The remainder is the serving core's
	// own time plus waiting, and is reported, not hidden.
	rawBit := uc.engineBit
	if w.health {
		rawBit += uc.healthBit
	}
	servedRawBit := rawBit
	if w.vonNeumann {
		servedRawBit = (rawBit + uc.vnBit) / uc.vnYield
	}
	c := traced.costs
	predicted := float64(c[costRaw].bytes*8)*servedRawBit +
		float64(c[costDRBG].ops)*uc.generate +
		float64(c[costReseed].ops)*(uc.generate+uc.reseed+drbgSeedBytes*8*rawBit)
	actual := float64(c[costRaw].ns + c[costDRBG].ns + c[costReseed].ns)
	rep.putLayer("attribution.unattributed_frac", 1-predicted/actual, "ratio")
	return nil
}

// probeSetupPath times the set-up layers below Characterize: a data-pattern
// row fill, and core.IdentifyRNGCells over the first banks of the profiling
// region on a fresh device, which must find the cells Characterize
// recorded.
func probeSetupPath(st *stack, tr *tracer, rep *report) error {
	g := st.profile.Geometry
	row := 0
	ns, _, err := tr.batch("pattern.FillRow", fillRowCalls, func() error {
		_, err := st.trng.Pattern.FillRow(row, g.ColsPerRow)
		row = (row + 1) % g.RowsPerBank
		return err
	})
	if err != nil {
		return err
	}
	rep.putLayer("pattern.fillrow_us", ns/1e3, "us")

	dev, err := st.device()
	if err != nil {
		return err
	}
	ctrl := memctrl.NewController(dev)
	ch := st.profile.Characterization
	cfg := core.DefaultIdentifyConfig(st.profile.Manufacturer)
	cfg.TRCDNS, cfg.Samples, cfg.Tolerance = ch.TRCDNS, ch.Samples, ch.Tolerance
	cfg.MaxBiasDelta, cfg.ScreenIterations = ch.MaxBiasDelta, ch.ScreenIterations
	banks := min(identifyBanks, ch.Banks)
	// Banks are identified in order on one controller, as Characterize
	// does, so the cells arrive in the profile's order.
	var found []core.RNGCell
	bank := 0
	ns, _, err = tr.batch("core.IdentifyRNGCells", banks, func() error {
		cells, err := core.IdentifyRNGCells(ctrl, profiler.Region{Bank: bank, RowCount: ch.RowsPerBank, WordCount: ch.WordsPerRow}, cfg)
		found = append(found, cells...)
		bank++
		return err
	})
	if err != nil {
		return err
	}
	rep.putLayer("core.identify_s_per_bank", ns/1e9, "s")
	var want []drange.Cell
	for _, c := range st.profile.Cells {
		if c.Bank < banks {
			want = append(want, c)
		}
	}
	same := len(found) == len(want)
	for i := 0; same && i < len(found); i++ {
		a, b := found[i], want[i]
		same = a.Addr.Bank == b.Bank && a.Addr.Row == b.Row && a.Addr.Col == b.Col && a.Fprob == b.FailProbability
	}
	rep.check(same, "core.IdentifyRNGCells found %d cells in banks [0,%d), the profile records %d", len(found), banks, len(want))
	return nil
}

// probeHarvest times the harvest stack: a sequential core.TRNG on a fresh
// device (its device counters give the dram metrics), each memctrl command
// of an Algorithm 2 sample on the same controller, the Figure 8 estimates,
// and a core.Engine at the workload's shard count. It returns the TRNG's
// raw output, the input of the screening probes.
func probeHarvest(ctx context.Context, cfg config, st *stack, tr *tracer, rep *report, uc *unitCosts) ([]byte, error) {
	dev, err := st.device()
	if err != nil {
		return nil, err
	}
	ctrl := memctrl.NewController(dev)
	trng, err := core.NewTRNG(ctrl, st.sels, st.trng)
	if err != nil {
		return nil, err
	}
	chunk := cfg.w.rawBytes
	raw := make([]byte, trngProbeBytes/chunk*chunk)
	off := 0
	d0 := dev.Stats()
	ns, _, err := tr.batch("core.TRNG.ReadPacked", len(raw)/chunk, func() error {
		err := trng.ReadPacked(raw[off : off+chunk])
		off += chunk
		return err
	})
	if err != nil {
		return nil, err
	}
	d1 := dev.Stats()
	reads := float64(d1.Reads - d0.Reads)
	rep.putLayer("dram.reads_per_bit", reads/float64(trng.BitsGenerated()), "count")
	rep.putLayer("dram.flips_per_read", float64(d1.InjectedFlips-d0.InjectedFlips)/reads, "count")
	bitsPerIter := float64(trng.BitsPerIteration())
	rep.putLayer("core.bits_per_iteration", bitsPerIter, "count")
	trngBit := ns / float64(chunk*8)
	rep.putLayer("core.trng_ns_per_bit", trngBit, "ns")

	mc, err := probeMemctrl(ctrl, st, tr)
	if err != nil {
		return nil, err
	}
	rep.putLayer("memctrl.activate_ns", mc.act, "ns")
	rep.putLayer("memctrl.read_ns", mc.read, "ns")
	rep.putLayer("memctrl.write_ns", mc.write, "ns")
	rep.putLayer("memctrl.precharge_ns", mc.pre, "ns")
	rep.putLayer("memctrl.allocs_per_sample", mc.allocs, "count")
	rep.putLayer("memctrl.sim_cycles_per_sample", mc.simCycles, "cycles")
	// A core loop iteration issues the four commands once per selected word.
	perIter := (mc.act + mc.read + mc.write + mc.pre) * float64(2*len(st.sels))
	rep.putLayer("core.trng_self_ns_per_bit", trngBit-perIter/bitsPerIter, "ns")

	for _, banks := range []int{1, 2, 4, 8} {
		res, err := core.ThroughputEstimate(memctrl.NewController(dev), st.sels, st.trng.TRCDNS, min(banks, len(st.sels)), 200)
		if err != nil {
			return nil, err
		}
		rep.putLayer(fmt.Sprintf("core.fig8_Mbps_b%d", banks), res.ThroughputMbps, "sim-Mb/s")
	}

	eng, err := st.engine(ctx, cfg.w.shards)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, chunk)
	ns, _, err = tr.until("core.Engine.ReadPacked", cfg.probe, func() error { return eng.ReadPacked(buf) })
	eng.Close()
	if err != nil {
		return nil, err
	}
	uc.engineBit = ns / float64(chunk*8)
	rep.putLayer("core.engine_ns_per_bit", uc.engineBit, "ns")
	rep.putLayer("core.engine_scaling", trngBit/uc.engineBit, "x")
	return raw, nil
}

// memctrlCost is the memctrl probe's result.
type memctrlCost struct {
	act, read, write, pre float64 // host ns per command, net of the clock read
	allocs                float64 // per sample
	simCycles             float64 // command-clock cycles per sample
}

// probeMemctrl issues Algorithm 2 samples over the profile's words through
// memctrl's public commands — activate, read, write back, precharge — and
// times each command, including the dram work it drives.
func probeMemctrl(ctrl *memctrl.Controller, st *stack, tr *tracer) (memctrlCost, error) {
	type word struct {
		bank, row, idx int
		orig           []uint64
	}
	g := st.profile.Geometry
	nw := g.WordBits / 64
	var words []word
	for _, s := range st.sels {
		for _, w := range []core.WordRef{s.Word1, s.Word2} {
			data, err := st.trng.Pattern.FillRow(w.Row, g.ColsPerRow)
			if err != nil {
				return memctrlCost{}, err
			}
			words = append(words, word{s.Bank, w.Row, w.WordIdx, data[w.WordIdx*nw : (w.WordIdx+1)*nw]})
		}
	}
	for bank := 0; bank < g.Banks; bank++ {
		if err := ctrl.PrechargeBank(bank); err != nil {
			return memctrlCost{}, err
		}
	}
	if err := ctrl.SetReducedTRCD(st.trng.TRCDNS); err != nil {
		return memctrlCost{}, err
	}
	defer ctrl.ResetTRCD()

	commands := [4]string{"memctrl.ActivateRow", "memctrl.ReadWordInto", "memctrl.WriteWord", "memctrl.PrechargeBank"}
	timer := timerOverhead()
	dst := make([]uint64, nw)
	var sum [4]time.Duration
	sim0, m0 := ctrl.Now(), mallocs()
	root := tr.begin("memctrl.sample")
	base := time.Now()
	for s := 0; s < memctrlSamples; s++ {
		for _, w := range words {
			var ts [5]time.Duration
			ts[0] = time.Since(base)
			if err := ctrl.ActivateRow(w.bank, w.row); err != nil {
				return memctrlCost{}, err
			}
			ts[1] = time.Since(base)
			if _, err := ctrl.ReadWordInto(w.bank, w.row, w.idx, dst); err != nil {
				return memctrlCost{}, err
			}
			ts[2] = time.Since(base)
			if _, err := ctrl.WriteWord(w.bank, w.row, w.idx, w.orig); err != nil {
				return memctrlCost{}, err
			}
			ts[3] = time.Since(base)
			if err := ctrl.PrechargeBank(w.bank); err != nil {
				return memctrlCost{}, err
			}
			ts[4] = time.Since(base)
			for i, name := range commands {
				sum[i] += ts[i+1] - ts[i]
				tr.record(name, root, base.Add(ts[i]), base.Add(ts[i+1]))
			}
		}
	}
	tr.end(root)
	n := float64(memctrlSamples * len(words))
	mean := func(i int) float64 { return float64(sum[i])/n - timer }
	return memctrlCost{
		act: mean(0), read: mean(1), write: mean(2), pre: mean(3),
		allocs:    float64(mallocs()-m0) / memctrlSamples,
		simCycles: float64(ctrl.Now()-sim0) / memctrlSamples,
	}, nil
}

// probeScreening times the health monitor over the raw harvest in chunks
// of the workload's raw read size, then the von Neumann corrector over the
// screened bits, in the serving path's order.
func probeScreening(raw []byte, chunk int, tr *tracer, rep *report, uc *unitCosts) error {
	mon, err := health.New(health.Config{})
	if err != nil {
		return err
	}
	off := 0
	ns, allocs, err := tr.batch("health.Monitor.IngestPacked", len(raw)/chunk*ingestPasses, func() error {
		mon.IngestPacked(raw[off:off+chunk], chunk*8)
		off = (off + chunk) % len(raw)
		return nil
	})
	if err != nil {
		return err
	}
	uc.healthBit = ns / float64(chunk*8)
	rep.putLayer("health.ingest_ns_per_bit", uc.healthBit, "ns")
	rep.putLayer("health.allocs_per_call", allocs, "count")
	rep.putLayer("health.trips", float64(mon.Counters().Trips()), "count")

	off = 0
	outBits := 0
	ns, allocs, err = tr.batch("postproc.VonNeumann.ProcessPacked", len(raw)/chunk, func() error {
		out, err := postproc.VonNeumann{}.ProcessPacked(postproc.Packed{Data: raw[off : off+chunk], Len: chunk * 8})
		off += chunk
		outBits += out.Len
		return err
	})
	if err != nil {
		return err
	}
	uc.vnBit = ns / float64(chunk*8)
	uc.vnYield = float64(outBits) / float64(len(raw)*8)
	rep.putLayer("postproc.vn_ns_per_bit", uc.vnBit, "ns")
	rep.putLayer("postproc.vn_yield", uc.vnYield, "ratio")
	rep.putLayer("postproc.allocs_per_call", allocs, "count")
	return nil
}

// probeChaCha times the ChaCha20 DRBG on constant seed material: raw
// device bytes never seed a DRBG here.
func probeChaCha(tr *tracer, rep *report, uc *unitCosts) error {
	seed := make([]byte, drbg.ChaChaSeedLen)
	for i := range seed {
		seed[i] = byte(i)
	}
	cc, err := drbg.NewChaCha(seed, nil, drbg.Options{})
	if err != nil {
		return err
	}
	out := make([]byte, 32)
	var allocs float64
	uc.generate, allocs, err = tr.batch("drbg.ChaCha.Generate", chachaCalls, func() error { return cc.Generate(out, nil) })
	if err != nil {
		return err
	}
	uc.reseed, _, err = tr.batch("drbg.ChaCha.Reseed", chachaCalls, func() error { return cc.Reseed(seed, nil) })
	if err != nil {
		return err
	}
	rep.putLayer("drbg.chacha_generate_ns", uc.generate, "ns")
	rep.putLayer("drbg.chacha_reseed_ns", uc.reseed, "ns")
	rep.putLayer("drbg.chacha_allocs", allocs, "count")
	return nil
}

// probeServing times the drange serving tiers. The raw tier is probed on
// the workload's Source; the DRBG tier too when it has one, else on a DRBG
// Source over the same profile and shard count.
func probeServing(ctx context.Context, cfg config, p *drange.Profile, src drange.Source, tr *tracer, rep *report) error {
	w := cfg.w
	rawProbe, allocs, err := tr.probeTier(src, op{size: w.rawBytes, raw: true}, false, cfg.probe)
	if err != nil {
		return err
	}
	raw := rawProbe.costs[costRaw]
	rep.putLayer("drange.raw_ns_per_bit", float64(raw.ns)/float64(raw.bytes*8), "ns")
	rep.putLayer("drange.raw_allocs_per_read", allocs, "count")
	rep.putLayer("drange.pool_max_member_share", maxMemberShare(src.Stats()), "ratio")

	dsrc := src
	if !w.drbg {
		dsrc, err = drange.Open(ctx, p, drange.WithShards(w.shards), drange.WithDRBG(drange.DRBGPolicy{}))
		if err != nil {
			return err
		}
		defer dsrc.Close()
	}
	gen0, reseeds0 := drbgCounts(dsrc)
	tr.drbgGen.Store(gen0)
	drbgProbe, allocs, err := tr.probeTier(dsrc, op{size: 32}, true, cfg.probe)
	if err != nil {
		return err
	}
	_, reseeds := drbgCounts(dsrc)
	plain, reseed := drbgProbe.costs[costDRBG], drbgProbe.costs[costReseed]
	rep.check(reseeds-reseeds0 == reseed.ops, "DRBG probe: Stats counts %d reseeds, the %d-request cadence %d", reseeds-reseeds0, reseedInterval, reseed.ops)
	rep.putLayer("drange.drbg_read_ns", float64(plain.ns)/float64(plain.ops), "ns")
	rep.putLayer("drange.reseed_read_us", float64(reseed.ns)/float64(reseed.ops)/1e3, "us")
	rep.putLayer("drange.drbg_allocs_per_read", allocs, "count")
	rep.putLayer("drbg.reseeds_per_MiB", float64(reseeds-reseeds0)/(float64(plain.bytes+reseed.bytes)/(1<<20)), "1/MiB")
	return nil
}

// probeTier traces a closed loop of one request on src for d and returns
// its costs and the heap allocations per request.
func (t *tracer) probeTier(src drange.Source, o op, drbgOn bool, d time.Duration) (*client, float64, error) {
	c := newClient([]op{o})
	m0 := mallocs()
	c.run(src, drbgOn, time.Now(), d, t)
	if c.failed > 0 {
		return nil, 0, fmt.Errorf("tier probe: %d of %d reads failed, first: %w", c.failed, c.ops, c.err)
	}
	return c, float64(mallocs()-m0) / float64(c.ops), nil
}

// drbgCounts returns the DRBG tier's generate and reseed counts, zero
// without one.
func drbgCounts(src drange.Source) (generates, reseeds int64) {
	if st := src.Stats(); st.DRBG != nil {
		return st.DRBG.Generates, st.DRBG.Reseeds
	}
	return 0, 0
}

// maxMemberShare is the largest fraction of delivered bits any one pool
// member served; 1 for a single device.
func maxMemberShare(st drange.Stats) float64 {
	var total, most int64
	for _, d := range st.Devices {
		total += d.BitsDelivered
		most = max(most, d.BitsDelivered)
	}
	if total == 0 {
		return 1
	}
	return float64(most) / float64(total)
}
