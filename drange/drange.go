// Package drange is the public facade of the D-RaNGe reproduction (Kim et
// al., HPCA 2019). Its API mirrors the paper's two-phase lifecycle:
//
//   - Characterize runs the one-time-per-device identification of RNG cells
//     (Sections 6.1–6.2) and returns a serializable Profile;
//   - Open starts a random number Source against a device matching a
//     profile, skipping identification entirely.
//
// Typical use — characterize once, open many times:
//
//	profile, err := drange.Characterize(ctx, drange.WithManufacturer("A"))
//	if err != nil { ... }
//	// persist: data, _ := profile.Encode(); os.WriteFile("device.json", data, 0o600)
//
//	src, err := drange.Open(ctx, profile)            // one harvesting shard
//	src, err = drange.Open(ctx, profile, drange.WithShards(4)) // four shards
//	if err != nil { ... }
//	defer src.Close()
//	buf := make([]byte, 32)
//	if _, err := src.Read(buf); err != nil { ... }   // 32 true random bytes
//
// Both forms return the same Source interface (io.ReadCloser + ReadBits +
// Uint64 + Stats) over the sharded harvesting engine; WithShards only changes
// throughput and thread scheduling. Configuration uses functional options
// (WithManufacturer, WithSerial, WithDeterministic, WithGeometry, WithTRCD,
// WithProfilingRegion, WithPaperIdentification, WithShards, WithPostprocess,
// ...), which distinguish unset parameters from explicit zeros.
//
// Devices are opened through pluggable backends implementing the public
// Device contract: "sim" (the default simulator), "replay" (operation-log
// record/replay for byte-reproducible runs) and "faulty" (fault injection
// over another backend), selected with WithBackend or injected directly with
// WithDevice; RegisterBackend adds custom backends. OpenPool multiplexes
// many devices — one per profile — behind a single Source with per-device
// sharded engines, least-loaded word scheduling and health tracking that
// evicts bias- or temperature-drifting devices without failing readers:
//
//	pool, err := drange.OpenPool(ctx, profiles,
//	    drange.WithShards(2),                // shards per device
//	    drange.WithHealth(drange.HealthPolicy{}))
//	if err != nil { ... }
//	defer pool.Close()
//	st := pool.Stats()                       // st.Devices: per-device breakdown
//
// WithHealthTests attaches the SP 800-90B style online health tests
// (repetition count, adaptive proportion, windowed bias, startup self-test)
// to any Source: trips fail reads with a typed *HealthError, block until a
// clean window, or evict the offending pool member, and Stats.Health carries
// the accounting:
//
//	src, err := drange.Open(ctx, profile,
//	    drange.WithHealthTests(drange.HealthTestPolicy{}))  // full default battery
//
// WithDRBG adds a deterministic output stage (SP 800-90A style) in front of
// the physical harvest, splitting the Source into two tiers: Read, ReadBits
// and Uint64 serve a DRBG — DRBGChaCha20 (fast-key-erasure, default) or
// DRBGCTRAES256 (CTR_DRBG, AES-256 no-df, CAVP-tested in
// repro/internal/drbg) — reseeded from health-screened physical seeds every
// ReseedInterval requests (or before every request under
// PredictionResistance), while ReadRaw keeps serving the raw physical tier.
// WithDRBG implies WithHealthTests: a seed cannot bypass the 90B screens. An
// entropy credit ledger credits every clean health window and debits every
// seed; Stats reports it (Stats.DRBG.Credit) alongside per-tier read/byte
// counts (Stats.TierRaw, Stats.TierDRBG). On pools each member runs its own
// DRBG with staggered reseed deadlines and least-loaded serving:
//
//	src, err := drange.Open(ctx, profile, drange.WithDRBG(drange.DRBGPolicy{}))
//	_, err = src.Read(buf)     // DRBG tier: expanded from screened seeds
//	_, err = src.ReadRaw(buf)  // raw tier: the physical harvest
//
// WithRecharacterization turns a pool's member lifecycle from terminal
// eviction into self-healing. Each member moves through explicit states —
// serving → quarantined → recharacterizing → readmitting → serving — driven
// by the health machinery: a drift or health-test trip quarantines the
// member (its engine stops, its device stays open) and a background
// recharacterizer re-runs a targeted identification pass over only the banks
// the member's profile selects, folds the surviving cells into a versioned,
// checksummed ProfileDelta (Profile.AppendDelta), rebuilds the engine and
// readmits the member with a hot profile swap. Reads never fail or stall
// while a member is out — the rest of the pool keeps serving — and a member
// whose pass fails repeatedly (RecharacterizationPolicy.MaxAttempts) is
// evicted terminally. Stats.Lifecycle and the per-device State/Readmissions
// fields surface the cycle:
//
//	pool, err := drange.OpenPool(ctx, profiles,
//	    drange.WithRecharacterization(drange.RecharacterizationPolicy{}))
//
// # Machine-checked invariants
//
// The concurrency and allocation rules this package relies on are not just
// documented — they are enforced by cmd/drange-vet, a go/analysis suite run
// in CI as "go vet -vettool". Source comments carry the annotations it
// checks: "// drange:guardedby <mu>" on a struct field restricts access to
// lock holders (functions named *Locked, functions annotated
// "//drange:holds <mu>", or code after an explicit <mu>.Lock()),
// "//drange:noalloc" on a function bans allocating constructs from the
// serving fast path ("//drange:noalloc amortized" permits amortized buffer
// growth), and "//drange:entropyflow-exempt <reason>" waives the
// pseudo-randomness ban for a file whose entropy only flows outward.
// "// drange:atomic" on a struct field restricts it to sync/atomic access
// (atomiccheck), and the interprocedural seedtaint analyzer proves that raw
// device entropy passes health.Monitor before reaching DRBG seed material or
// an exported reader — the documented ReadRaw tier carries the only
// sanctioned "//drange:seedtaint-exempt" waiver. The full grammar is
// documented in repro/internal/analysis. Run the suite locally with
// "make lint" or:
//
//	go build -o bin/drange-vet ./cmd/drange-vet
//	go vet -vettool=$PWD/bin/drange-vet ./...
package drange

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/health"
	"repro/internal/memctrl"
	"repro/internal/nist"
	"repro/internal/power"
	"repro/internal/profiler"
	"repro/internal/timing"
)

// deterministicNoiseSalt decorrelates the seeded noise stream from the
// device serial (which also seeds the process variation).
const deterministicNoiseSalt = 0xD0A11CE5

// newDevice opens a simulated device for the given identity. Deterministic
// devices use per-bank seeded noise streams, so multi-shard harvests stay
// reproducible.
func newDevice(manufacturer string, serial uint64, deterministic bool, geom Geometry) (*dram.Device, error) {
	m := dram.Manufacturer(manufacturer)
	if _, err := dram.ProfileFor(m); err != nil {
		return nil, fmt.Errorf("drange: %w", err)
	}
	var noise dram.NoiseSource
	if deterministic {
		noise = dram.NewDeterministicBankNoise(serial ^ deterministicNoiseSalt)
	}
	dev, err := dram.NewDevice(dram.Config{
		Serial:       serial,
		Manufacturer: m,
		Geometry:     geom.internal(),
		Timing:       timing.NewLPDDR4(),
		Noise:        noise,
	})
	if err != nil {
		return nil, fmt.Errorf("drange: %w", err)
	}
	return dev, nil
}

// resolveDevice opens the device the options select: an explicitly supplied
// Device, a registered backend (WithBackend), or the default sim backend. It
// returns the internal pipeline view alongside the public device (for
// Close/Temperature) and the backend name used.
func (o *options) resolveDevice(manufacturer string, serial uint64, deterministic bool, geom Geometry) (device.Device, Device, string, error) {
	if o.device != nil {
		if o.backend != nil {
			return nil, nil, "", fmt.Errorf("drange: WithDevice and WithBackend are mutually exclusive")
		}
		return internalDevice(o.device), o.device, "custom", nil
	}
	spec := backendSpec{name: "sim"}
	if o.backend != nil {
		spec = *o.backend
	}
	pub, err := OpenBackend(spec.name, BackendParams{
		Manufacturer:  manufacturer,
		Serial:        serial,
		Deterministic: deterministic,
		Geometry:      geom,
		Options:       spec.params,
	})
	if err != nil {
		return nil, nil, "", err
	}
	return internalDevice(pub), pub, spec.name, nil
}

// characterize runs RNG-cell identification and word selection over the
// controller's device and builds the sealed profile.
func characterize(ctx context.Context, ctrl *memctrl.Controller, p charParams) (*Profile, []core.BankSelection, error) {
	idCfg := core.DefaultIdentifyConfig(p.Manufacturer)
	idCfg.TRCDNS = p.TRCDNS
	idCfg.Samples = p.Samples
	idCfg.Tolerance = p.Tolerance
	idCfg.MaxBiasDelta = p.MaxBiasDelta
	idCfg.ScreenIterations = p.ScreenIterations

	geom := ctrl.Device().Geometry()
	banks := p.Banks
	if banks <= 0 || banks > geom.Banks {
		banks = geom.Banks
	}
	rows := p.RowsPerBank
	if rows > geom.RowsPerBank {
		rows = geom.RowsPerBank
	}
	words := p.WordsPerRow
	if words > geom.WordsPerRow() {
		words = geom.WordsPerRow()
	}
	var cells []core.RNGCell
	for bank := 0; bank < banks; bank++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("drange: characterization cancelled: %w", err)
		}
		region := profiler.Region{Bank: bank, RowStart: 0, RowCount: rows, WordStart: 0, WordCount: words}
		found, err := core.IdentifyRNGCells(ctrl, region, idCfg)
		if err != nil {
			return nil, nil, fmt.Errorf("drange: identifying RNG cells in bank %d: %w", bank, err)
		}
		cells = append(cells, found...)
	}
	if len(cells) == 0 {
		return nil, nil, fmt.Errorf("drange: no RNG cells found; enlarge the profiling region or loosen the tolerance")
	}
	sels, err := core.SelectBankWords(cells)
	if err != nil {
		return nil, nil, fmt.Errorf("drange: %w", err)
	}

	profile := &Profile{
		Version:      ProfileVersion,
		Manufacturer: p.Manufacturer,
		Serial:       p.Serial,
		Geometry:     geometryFromInternal(geom),
		Characterization: CharacterizationParams{
			TRCDNS:           p.TRCDNS,
			Samples:          p.Samples,
			Tolerance:        p.Tolerance,
			MaxBiasDelta:     p.MaxBiasDelta,
			ScreenIterations: p.ScreenIterations,
			Pattern:          idCfg.Pattern.String(),
			RowsPerBank:      rows,
			WordsPerRow:      words,
			Banks:            banks,
			Deterministic:    p.Deterministic,
		},
	}
	for _, c := range cells {
		profile.Cells = append(profile.Cells, cellFromCore(c))
	}
	for _, s := range sels {
		profile.Selections = append(profile.Selections, selectionFromCore(s))
	}
	if err := profile.Seal(); err != nil {
		return nil, nil, err
	}
	return profile, sels, nil
}

// Characterize opens a simulated device and runs the paper's
// one-time-per-device characterization: it identifies the device's RNG cells
// (Section 6.1) and selects the best two DRAM words per bank (Section 6.2),
// returning a serializable Profile. Persist the profile (Profile.Encode /
// Profile.Save) and hand it to Open — possibly in another process, much
// later — to start generating without repeating this work.
//
// ctx cancellation is observed between banks. Generation options
// (WithShards, WithPostprocess) are rejected here; they belong to Open.
func Characterize(ctx context.Context, opts ...Option) (*Profile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := buildOptions(opts)
	if o.shards != nil || len(o.post) > 0 || o.healthTests != nil || o.drbg != nil {
		return nil, fmt.Errorf("drange: generation options (WithShards, WithPostprocess, WithHealthTests, WithDRBG) apply to Open, not Characterize")
	}
	if err := o.rejectPoolOnly("Characterize"); err != nil {
		return nil, err
	}
	p := o.charParams()
	dev, pub, _, err := o.resolveDevice(p.Manufacturer, p.Serial, p.Deterministic, p.Geometry)
	if err != nil {
		return nil, err
	}
	ctrl := memctrl.NewController(dev)
	profile, _, err := characterize(ctx, ctrl, p)
	// Characterize owns the device it opened through a backend; release it
	// (flushing, for example, a replay recorder's log). A caller-supplied
	// WithDevice device stays open for the caller's next move.
	if o.device == nil {
		if cerr := closeDevice(pub); err == nil && cerr != nil {
			err = cerr
		}
	}
	return profile, err
}

// Open starts a random number Source against a device matching the profile.
// It never re-runs identification: the profile's cells and selections are
// loaded directly, so Open completes in milliseconds regardless of device
// size. Opening a profile against a different device identity
// (WithManufacturer, WithSerial or WithGeometry disagreeing with the
// profile) errors loudly — RNG-cell locations are per-device process
// variation, and sampling the wrong device's cells would not be random.
//
// The Source harvests through the sharded engine: WithShards(n) starts n
// per-shard controllers, and WithShards(0), the default, starts one. Under
// deterministic noise the byte stream depends only on the shard layout. ctx
// cancellation stops the harvesting goroutines. The concrete type is
// *Generator, which additionally exposes the profile and the paper's
// throughput/latency/energy estimators.
//
//drange:holds mu construction: the Generator is not published until Open returns
func Open(ctx context.Context, profile *Profile, opts ...Option) (Source, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if profile == nil {
		return nil, fmt.Errorf("drange: nil profile")
	}
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	if err := o.rejectCharacterizationOnly(); err != nil {
		return nil, err
	}
	if err := o.rejectPoolOnly("Open"); err != nil {
		return nil, err
	}
	// Resolve the DRBG tier first: it implies the health tests, so the
	// monitor construction below must already see the implied policy.
	drbgPolicy, drbgOn, err := o.resolveDRBG()
	if err != nil {
		return nil, err
	}
	shards, err := o.shardCount()
	if err != nil {
		return nil, err
	}
	if o.manufacturer != nil && *o.manufacturer != profile.Manufacturer {
		return nil, fmt.Errorf("drange: device mismatch: profile was characterized on manufacturer %q, not %q", profile.Manufacturer, *o.manufacturer)
	}
	if o.serial != nil && *o.serial != profile.Serial {
		return nil, fmt.Errorf("drange: device mismatch: profile was characterized on serial %d, not %d", profile.Serial, *o.serial)
	}
	if o.geometry != nil && *o.geometry != profile.Geometry {
		return nil, fmt.Errorf("drange: device mismatch: profile geometry %+v differs from requested %+v", profile.Geometry, *o.geometry)
	}

	deterministic := profile.Characterization.Deterministic
	if o.deterministic != nil {
		deterministic = *o.deterministic
	}
	trcd := profile.Characterization.TRCDNS
	if o.trcdNS != nil {
		trcd = *o.trcdNS
	}
	pat, err := parsePattern(profile.Characterization.Pattern)
	if err != nil {
		return nil, err
	}
	sels, err := coreSelections(profile.EffectiveCells(), profile.EffectiveSelections())
	if err != nil {
		return nil, err
	}
	dev, pub, backend, err := o.resolveDevice(profile.Manufacturer, profile.Serial, deterministic, profile.Geometry)
	if err != nil {
		return nil, err
	}
	ownsDev := o.device == nil
	fail := func(err error) (Source, error) {
		if ownsDev {
			closeDevice(pub)
		}
		return nil, err
	}
	// Backends construct to the profile's identity, but a WithDevice device
	// is whatever the caller handed us: verify it before sampling — RNG-cell
	// locations are per-device process variation, and reading another
	// device's cells would not be random.
	if s := pub.Serial(); s != profile.Serial {
		return fail(fmt.Errorf("drange: device mismatch: profile was characterized on serial %d, but the device reports %d", profile.Serial, s))
	}
	if dg := pub.Geometry(); dg != profile.Geometry {
		return fail(fmt.Errorf("drange: device mismatch: profile geometry %+v differs from the device's %+v", profile.Geometry, dg))
	}

	g := &Generator{profile: profile, trcdNS: trcd, sels: sels}
	// The generator serves as a 1-member pool on the shared serving core:
	// idx -1 is the Device value its HealthErrors report, and the pool
	// device-health policy (bias/temperature windows) stays disabled — it is
	// an OpenPool feature.
	m := &servingMember{
		idx:     -1,
		profile: profile,
		backend: backend,
		pub:     pub,
		dev:     dev,
		shards:  shards,
		trcdNS:  trcd,
		ownsDev: ownsDev,
	}
	g.single = true
	g.members = []*servingMember{m}
	g.policy = HealthPolicy{Disabled: true}
	if len(o.post) > 0 {
		chain, err := newPostChain(o.post)
		if err != nil {
			return fail(err)
		}
		g.post = chain
	}
	eng, err := core.NewEngine(ctx, dev, sels, core.EngineConfig{
		Shards: shards,
		TRNG:   core.TRNGConfig{TRCDNS: trcd, Pattern: pat},
	})
	if err != nil {
		return fail(fmt.Errorf("drange: %w", err))
	}
	m.eng = eng
	m.fastEng.Store(eng)
	if o.healthTests != nil && !o.healthTests.Disabled {
		// The engine is live from here on, so failures release it through
		// Close (stopping harvest goroutines), not the bare device closer.
		failStarted := func(err error) (Source, error) {
			g.Close()
			return nil, err
		}
		hp := o.healthTests.withDefaults(false)
		if hp.OnFailure == HealthActionEvict {
			return failStarted(fmt.Errorf("drange: health action %q applies to OpenPool, not Open (there is no pool member to evict)", hp.OnFailure))
		}
		mon, err := health.New(hp.config())
		if err != nil {
			return failStarted(fmt.Errorf("drange: %w", err))
		}
		g.testsEnabled, g.testsPolicy = true, hp
		m.monitor, m.startupOK = mon, true
		if err := g.runStartupTests(); err != nil {
			return failStarted(err)
		}
		if drbgOn {
			// Instantiate the DRBG tier from a health-screened seed: the
			// ledger registers as the monitor's credit sink before the seed
			// harvest, so even the first seed accrues toward the credit
			// windows.
			g.drbgOn, g.drbgPolicy = true, drbgPolicy
			if err := g.instantiateDRBGs(); err != nil {
				return failStarted(err)
			}
		}
	}
	return g, nil
}

// Generator is the concrete Source returned by Open. Beyond the Source
// interface it exposes the profile it runs under and the evaluation
// estimators of Section 7.3, which run on a private simulated LPDDR4 twin of
// the device built from the profile, never on the live device. It is safe
// for concurrent use.
//
// A Generator is served as a 1-member pool: the embedded servingCore carries
// the single member (engine, device, health monitor, DRBG state, tier
// accounting) and implements Read, ReadBits, ReadRaw, Uint64 and Close — the
// same implementations a Pool serves through.
type Generator struct {
	servingCore

	profile *Profile
	trcdNS  float64
	sels    []core.BankSelection
}

// Profile returns the device profile this generator runs under.
func (g *Generator) Profile() *Profile { return g.profile }

// Backend returns the name of the device backend this generator samples
// ("sim" unless WithBackend or WithDevice chose otherwise; "custom" for a
// WithDevice device).
func (g *Generator) Backend() string { return g.members[0].backend }

// Device returns the public view of the device this generator samples.
func (g *Generator) Device() Device { return g.members[0].pub }

// Banks returns the number of banks sampled for generation.
func (g *Generator) Banks() int { return len(g.sels) }

// Shards returns the number of parallel harvesting shards: the WithShards
// count (1 by default), clamped to the number of selected banks.
func (g *Generator) Shards() int { return g.members[0].eng.Shards() }

// Cells returns the RNG cells sampled for generation, with the profile's
// delta chain resolved.
func (g *Generator) Cells() []Cell { return g.profile.EffectiveCells() }

// Selections returns the per-bank DRAM-word selections used for generation,
// with the profile's delta chain resolved.
func (g *Generator) Selections() []Selection { return g.profile.EffectiveSelections() }

// DensityHistograms returns the Figure 7 data for this device: the number of
// DRAM words containing x RNG cells, per bank.
func (g *Generator) DensityHistograms() []Density { return g.profile.DensityHistograms() }

// Stats returns the per-shard and aggregate throughput/latency accounting in
// simulated DRAM time.
func (g *Generator) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := statsFromEngine(g.members[0].eng.Stats())
	// Per-shard delivery counts bits drained from the shard rings; the
	// aggregate reports what callers actually received (they differ only
	// under a post-processing chain).
	st.BitsDelivered = g.delivered.Load()
	st.Health = g.healthStatsLocked()
	g.tierStatsLocked(&st)
	return st
}

// twinController returns a controller over a private simulated twin of the
// generator's device, built from the profile's identity and geometry. The
// estimators drive the twin, never the live device: their results depend only
// on the LPDDR4 timing model, the geometry and the selections, so estimating
// neither pauses the harvest nor consumes the device's noise. The twin's own
// noise is seeded, since no estimate depends on it.
func (g *Generator) twinController(opts ...memctrl.Option) (*memctrl.Controller, error) {
	p := g.profile
	dev, err := newDevice(p.Manufacturer, p.Serial, true, p.Geometry)
	if err != nil {
		return nil, err
	}
	return memctrl.NewController(dev, opts...), nil
}

// checkBanks rejects a bank count outside [1, Banks()].
func (g *Generator) checkBanks(banks int) error {
	if banks <= 0 || banks > len(g.sels) {
		return fmt.Errorf("drange: %d banks requested but the profile selects %d; pass a value in [1,%d]", banks, len(g.sels), len(g.sels))
	}
	return nil
}

// EstimateThroughput measures the single-channel throughput (Mb/s) with the
// given number of banks — the computation behind Figure 8. banks must be in
// [1, Banks()]; out-of-range values error rather than silently clamping.
func (g *Generator) EstimateThroughput(banks, iterations int) (Throughput, error) {
	if err := g.checkBanks(banks); err != nil {
		return Throughput{}, err
	}
	ctrl, err := g.twinController()
	if err != nil {
		return Throughput{}, err
	}
	res, err := core.ThroughputEstimate(ctrl, g.sels, g.trcdNS, banks, iterations)
	if err != nil {
		return Throughput{}, fmt.Errorf("drange: %w", err)
	}
	return Throughput{
		Banks:            res.Banks,
		BitsPerIteration: res.BitsPerIteration,
		NSPerIteration:   res.NSPerIteration,
		ThroughputMbps:   res.ThroughputMbps,
	}, nil
}

// EstimateLatency measures the time in nanoseconds to produce bits random
// bits using the top banks bank selections — the Section 7.3 latency
// analysis, whose bounds come from a single sparse bank (worst case) versus
// every bank of every channel (best case).
func (g *Generator) EstimateLatency(banks, bits int) (float64, error) {
	if err := g.checkBanks(banks); err != nil {
		return 0, err
	}
	ctrl, err := g.twinController()
	if err != nil {
		return 0, err
	}
	lat, err := core.LatencyEstimate(ctrl, g.sels, g.trcdNS, banks, bits)
	if err != nil {
		return 0, fmt.Errorf("drange: %w", err)
	}
	return lat, nil
}

// EstimateLatency64 measures the time in nanoseconds to produce 64 random
// bits using all selected banks (Section 7.3).
func (g *Generator) EstimateLatency64() (float64, error) {
	return g.EstimateLatency(len(g.sels), 64)
}

// EstimateEnergyPerBit returns the marginal energy per generated bit in
// nanojoules, using the LPDDR4 power model (Section 7.3).
func (g *Generator) EstimateEnergyPerBit(iterations int) (float64, error) {
	ctrl, err := g.twinController(memctrl.WithTrace())
	if err != nil {
		return 0, err
	}
	nj, err := core.EnergyEstimate(ctrl, g.sels, g.trcdNS, len(g.sels), iterations, power.NewLPDDR4Model())
	if err != nil {
		return 0, fmt.Errorf("drange: %w", err)
	}
	return nj, nil
}

// maxNISTBits bounds a RunNIST request: the battery needs the whole stream
// in memory (one byte per bit), so an absurd request is rejected up front
// instead of attempting a multi-gigabyte allocation.
const maxNISTBits = 1 << 30

// RunNIST generates bits from the generator and runs the full NIST SP 800-22
// suite over them at the given significance level (the NIST-recommended
// α = 0.0001 when 0). bits must be in (0, 2^30]: the suite holds the whole
// bit-per-byte stream in memory.
func (g *Generator) RunNIST(bits int, alpha float64) ([]NISTResult, error) {
	if bits > maxNISTBits {
		return nil, fmt.Errorf("drange: RunNIST request of %d bits exceeds the %d-bit limit", bits, maxNISTBits)
	}
	if alpha == 0 {
		alpha = nist.DefaultAlpha
	}
	stream, err := g.ReadBits(bits)
	if err != nil {
		return nil, err
	}
	res, err := nist.RunAll(stream, alpha)
	if err != nil {
		return nil, fmt.Errorf("drange: %w", err)
	}
	out := make([]NISTResult, 0, len(res.Results))
	for _, r := range res.Results {
		out = append(out, NISTResult{
			Name:       r.Name,
			PValue:     r.PValue,
			Applicable: r.Applicable,
			Pass:       r.Pass,
			Detail:     r.Detail,
		})
	}
	return out, nil
}

var _ Source = (*Generator)(nil)
