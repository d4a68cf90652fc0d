package drange

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/health"
)

// HealthPolicy controls a pool's per-device health tracking. D-RaNGe's
// output quality rests on RNG cells staying unbiased at the characterized
// operating point; the paper's temperature study (Section 5.3) shows failure
// probabilities drift as the device leaves that point. A pool therefore
// monitors each device's harvested bitstream for bias drift and its reported
// temperature for drift away from the open-time baseline, and evicts devices
// that cross the limits so one bad chip cannot poison the aggregate stream.
type HealthPolicy struct {
	// WindowBits is the number of freshly harvested bits per device over
	// which bias is measured; at each full window the ones-fraction is
	// compared against one half. 0 selects 4096 (the binomial standard
	// deviation of the ones-fraction at 4096 bits is ~0.008, so the default
	// MaxBiasDelta of 0.1 sits ~13 sigma out — unreachable by healthy noise).
	WindowBits int
	// MaxBiasDelta is the eviction threshold for |ones-fraction − 0.5| over
	// a window. 0 selects 0.1; negative disables bias eviction. Unlike the
	// functional options, this config struct keeps zero-means-default
	// semantics so partial policies stay ergonomic; a strict
	// evict-on-any-measured-bias policy is any positive value below the
	// window's resolution (e.g. 0.5/WindowBits).
	MaxBiasDelta float64
	// MaxTempDriftC is the eviction threshold for the absolute temperature
	// drift (°C) from the device's open-time baseline, checked at every
	// window boundary. 0 selects 10; negative disables temperature eviction.
	MaxTempDriftC float64
	// Disabled turns all health tracking off.
	Disabled bool
}

func (p HealthPolicy) withDefaults() HealthPolicy {
	if p.WindowBits == 0 {
		p.WindowBits = 4096
	}
	// The window accumulator packs (ones, bits) into one 64-bit atomic with
	// 32 bits each; clamp absurd windows so the packing cannot overflow.
	if p.WindowBits > 1<<30 {
		p.WindowBits = 1 << 30
	}
	if p.MaxBiasDelta == 0 {
		p.MaxBiasDelta = 0.1
	}
	if p.MaxTempDriftC == 0 {
		p.MaxTempDriftC = 10
	}
	return p
}

// Pool is the multi-device Source returned by OpenPool. It multiplexes N
// devices — each with its own profile, backend and sharded harvesting engine
// — behind the ordinary Source interface, scheduling 64-bit word fetches to
// the least-loaded healthy device, tracking per-device health (bias and
// temperature drift per HealthPolicy) and evicting unhealthy devices without
// failing readers as long as one healthy device remains.
//
// The embedded servingCore carries the members and implements Read,
// ReadBits, ReadRaw, Uint64 and Close — the same implementations a Generator
// (a 1-member core) serves through.
type Pool struct {
	servingCore
}

// OpenPool opens one device per profile and multiplexes them behind a single
// Source. Each device runs its own sharded harvesting engine (WithShards
// selects the shards per device; default 1), so the pool's aggregate
// simulated throughput is the sum of the member rates — the fleet-scale
// counterpart of the paper's multi-channel scaling.
//
// Devices open through the default backend (WithBackend, else "sim"),
// overridable per profile index with WithDeviceBackend. Device health is
// tracked per HealthPolicy (WithHealth): a device whose harvested bitstream
// drifts from 50/50 or whose temperature drifts from its open-time baseline
// is evicted — its engine stops, its remaining bits are discarded, and reads
// continue seamlessly from the surviving devices. The last healthy device is
// never evicted (degraded output beats no output; the breakdown in Stats
// reports the violation instead). Stats carries a per-device breakdown in
// Stats.Devices.
//
// ctx cancellation stops every member engine. Close releases all members.
//
//drange:holds mu construction: the pool is not published until OpenPool returns
func OpenPool(ctx context.Context, profiles []*Profile, opts ...Option) (*Pool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("drange: OpenPool needs at least one profile")
	}
	o := buildOptions(opts)
	if err := o.rejectCharacterizationOnly(); err != nil {
		return nil, err
	}
	if o.device != nil {
		return nil, fmt.Errorf("drange: WithDevice does not apply to OpenPool (it opens one device per profile); use WithDeviceBackend or open single Sources")
	}
	for i := range o.deviceBackends {
		if i < 0 || i >= len(profiles) {
			return nil, fmt.Errorf("drange: WithDeviceBackend index %d outside the %d profiles", i, len(profiles))
		}
	}
	// Resolve the DRBG tier first: it implies the health tests, so the
	// member monitor construction below must already see the implied policy.
	drbgPolicy, drbgOn, err := o.resolveDRBG()
	if err != nil {
		return nil, err
	}
	shardsPerDevice, err := o.shardCount()
	if err != nil {
		return nil, err
	}
	policy := HealthPolicy{}
	if o.health != nil {
		policy = *o.health
	}
	policy = policy.withDefaults()

	pctx, cancel := context.WithCancel(ctx)
	p := &Pool{}
	p.policy = policy
	p.cancel = cancel
	if o.healthTests != nil && !o.healthTests.Disabled {
		p.testsEnabled = true
		p.testsPolicy = o.healthTests.withDefaults(true)
	}
	if len(o.post) > 0 {
		chain, err := newPostChain(o.post)
		if err != nil {
			cancel()
			return nil, err
		}
		p.post = chain
	}
	fail := func(err error) (*Pool, error) {
		p.closeMembers()
		cancel()
		return nil, err
	}
	for i, profile := range profiles {
		if profile == nil {
			return fail(fmt.Errorf("drange: nil profile at index %d", i))
		}
		if err := profile.Validate(); err != nil {
			return fail(fmt.Errorf("drange: profile %d: %w", i, err))
		}
		// Identity options pin every member, with Open's mismatch semantics.
		if o.manufacturer != nil && *o.manufacturer != profile.Manufacturer {
			return fail(fmt.Errorf("drange: device mismatch: profile %d was characterized on manufacturer %q, not %q", i, profile.Manufacturer, *o.manufacturer))
		}
		if o.serial != nil && *o.serial != profile.Serial {
			return fail(fmt.Errorf("drange: device mismatch: profile %d was characterized on serial %d, not %d", i, profile.Serial, *o.serial))
		}
		if o.geometry != nil && *o.geometry != profile.Geometry {
			return fail(fmt.Errorf("drange: device mismatch: profile %d geometry %+v differs from requested %+v", i, profile.Geometry, *o.geometry))
		}
		memberOpts := *o
		if spec, ok := o.deviceBackends[i]; ok {
			memberOpts.backend = &spec
		}
		pat, err := parsePattern(profile.Characterization.Pattern)
		if err != nil {
			return fail(fmt.Errorf("drange: profile %d: %w", i, err))
		}
		sels, err := coreSelections(profile.EffectiveCells(), profile.EffectiveSelections())
		if err != nil {
			return fail(fmt.Errorf("drange: profile %d: %w", i, err))
		}
		deterministic := profile.Characterization.Deterministic
		if o.deterministic != nil {
			deterministic = *o.deterministic
		}
		trcd := profile.Characterization.TRCDNS
		if o.trcdNS != nil {
			trcd = *o.trcdNS
		}
		dev, pub, backend, err := memberOpts.resolveDevice(profile.Manufacturer, profile.Serial, deterministic, profile.Geometry)
		if err != nil {
			return fail(fmt.Errorf("drange: pool device %d: %w", i, err))
		}
		m := &servingMember{
			idx:       i,
			profile:   profile,
			backend:   backend,
			pub:       pub,
			dev:       dev,
			shards:    shardsPerDevice,
			trcdNS:    trcd,
			ownsDev:   true,
			baseTempC: pub.Temperature(),
		}
		p.members = append(p.members, m)
		// Same verification Open performs: a backend that ignores the
		// requested identity must not pool a device mismatching its profile
		// (harvesting another device's cell coordinates is not random).
		if s := pub.Serial(); s != profile.Serial {
			return fail(fmt.Errorf("drange: pool device %d mismatch: profile was characterized on serial %d, but the device reports %d", i, profile.Serial, s))
		}
		if dg := pub.Geometry(); dg != profile.Geometry {
			return fail(fmt.Errorf("drange: pool device %d mismatch: profile geometry %+v differs from the device's %+v", i, profile.Geometry, dg))
		}
		eng, err := core.NewEngine(pctx, dev, sels, core.EngineConfig{
			Shards: shardsPerDevice,
			TRNG:   core.TRNGConfig{TRCDNS: trcd, Pattern: pat},
		})
		if err != nil {
			return fail(fmt.Errorf("drange: pool device %d: %w", i, err))
		}
		m.eng = eng
		m.fastEng.Store(eng)
		if p.testsEnabled {
			mon, err := health.New(p.testsPolicy.config())
			if err != nil {
				return fail(fmt.Errorf("drange: %w", err))
			}
			m.monitor, m.startupOK = mon, true
		}
	}
	if err := p.runStartupTests(); err != nil {
		return fail(err)
	}
	if drbgOn {
		p.drbgOn, p.drbgPolicy = true, drbgPolicy
		if err := p.instantiateDRBGs(); err != nil {
			return fail(err)
		}
	}
	// The recharacterizer starts last, once the member set is final: members
	// retired before this point (startup failures are terminal anyway) were
	// never quarantined, so the channel starts empty.
	if o.rechar != nil && !o.rechar.Disabled {
		p.pctx = pctx
		p.recharOn = true
		p.recharPolicy = o.rechar.withDefaults()
		p.recharCh = make(chan *servingMember, len(p.members))
		p.recharWG.Add(1)
		go p.recharacterizer(pctx)
	}
	return p, nil
}

// Devices returns the number of devices the pool opened (evicted included).
func (p *Pool) Devices() int { return len(p.members) }

// Stats returns the pool's aggregate accounting plus the per-device
// breakdown in Stats.Devices. Shard entries across all devices are
// flattened into Stats.Shards with globally renumbered shard indices;
// evicted devices keep reporting the totals they reached before eviction.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := Stats{BitsDelivered: p.delivered.Load()}
	if p.testsEnabled {
		out.Health = &HealthStats{SymbolBits: p.testsPolicy.SymbolBits, StartupPassed: true}
	}
	out.TierRaw = TierStats{Reads: p.tierRawReads.Load(), Bytes: p.tierRawBytes.Load()}
	out.TierDRBG = TierStats{Reads: p.tierDRBGReads.Load(), Bytes: p.tierDRBGBytes.Load()}
	if p.drbgOn {
		out.DRBG = &DRBGStats{
			Algorithm:            string(p.drbgPolicy.Algorithm),
			PredictionResistance: p.drbgPolicy.PredictionResistance,
		}
	}
	if p.recharOn {
		out.Lifecycle = &LifecycleStats{}
	}
	bitsPerNS := 0.0
	shardIdx := 0
	for _, m := range p.members {
		est := statsFromEngine(m.eng.Stats())
		state := m.lifecycle()
		ds := PoolDeviceStats{
			Device:              m.idx,
			Serial:              m.profile.Serial,
			Backend:             m.backend,
			Healthy:             state == memberServing,
			Evicted:             state == memberEvicted,
			State:               state.String(),
			Reason:              m.reason,
			BiasDelta:           m.biasDelta,
			TemperatureC:        m.lastTemperature(),
			Readmissions:        m.readmissions,
			Recharacterizations: m.recharacterizations,
			RecharFailures:      m.recharFailures,
			LastRecharMS:        m.lastRecharMS,
			ProfileDeltas:       len(m.profile.Deltas),
			BitsHarvested:       est.BitsHarvested,
			BitsDelivered:       m.delivered.Load(),
			ThroughputMbps:      est.AggregateThroughputMbps,
			Latency64NS:         est.Latency64NS,
			Shards:              est.Shards,
		}
		if lc := out.Lifecycle; lc != nil {
			switch state {
			case memberServing:
				lc.Serving++
			case memberQuarantined:
				lc.Quarantined++
			case memberRecharacterizing:
				lc.Recharacterizing++
			case memberReadmitting:
				lc.Readmitting++
			case memberEvicted:
				lc.Evicted++
			}
			lc.Readmissions += m.readmissions
			lc.Recharacterizations += m.recharacterizations
			lc.RecharFailures += m.recharFailures
		}
		if m.monitor != nil {
			ds.Health = healthStatsFrom(m.monitor, m.blockedWindows, m.startupOK)
			agg := out.Health
			agg.BitsTested += ds.Health.BitsTested
			agg.SymbolsTested += ds.Health.SymbolsTested
			agg.RCTTrips += ds.Health.RCTTrips
			agg.APTTrips += ds.Health.APTTrips
			agg.BiasTrips += ds.Health.BiasTrips
			agg.TotalTrips += ds.Health.TotalTrips
			agg.BlockedWindows += ds.Health.BlockedWindows
			if ds.Health.LongestRun > agg.LongestRun {
				agg.LongestRun = ds.Health.LongestRun
			}
			if !ds.Health.StartupPassed {
				agg.StartupPassed = false
			}
			if ds.Health.LastViolation != "" {
				agg.LastViolation = ds.Health.LastViolation
			}
		}
		if m.drbg != nil {
			ds.DRBG = m.drbg.stats()
			if out.DRBG != nil {
				out.DRBG.Reseeds += ds.DRBG.Reseeds
				out.DRBG.Generates += ds.DRBG.Generates
				out.DRBG.Credit.CreditedBits += ds.DRBG.Credit.CreditedBits
				out.DRBG.Credit.DebitedBits += ds.DRBG.Credit.DebitedBits
				out.DRBG.Credit.BalanceBits += ds.DRBG.Credit.BalanceBits
			}
		}
		out.Devices = append(out.Devices, ds)
		out.BitsHarvested += est.BitsHarvested
		for _, ss := range est.Shards {
			ss.Shard = shardIdx
			shardIdx++
			out.Shards = append(out.Shards, ss)
		}
		if state == memberServing && est.AggregateThroughputMbps > 0 {
			bitsPerNS += est.AggregateThroughputMbps / 1000.0
		}
	}
	if bitsPerNS > 0 {
		out.AggregateThroughputMbps = bitsPerNS * 1000.0
		out.Latency64NS = 64.0 / bitsPerNS
	}
	return out
}

// lastTemperature reads the member's device temperature; an evicted member
// reports its baseline (its device may already be closed). Members merely out
// of serving for re-characterization keep their devices open, so they report
// live temperatures.
func (m *servingMember) lastTemperature() float64 {
	if m.lifecycle() == memberEvicted {
		return m.baseTempC
	}
	return m.pub.Temperature()
}

var _ Source = (*Pool)(nil)
