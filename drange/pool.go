package drange

import (
	"context"
	"fmt"
)

// Pool is the multi-device Source returned by OpenPool. It multiplexes N
// devices — each with its own profile, backend and sharded harvesting engine
// — behind the ordinary Source interface, scheduling 64-bit word fetches to
// the least-loaded healthy device. With WithHealthTests each device runs its
// own health monitor (RCT, APT, bias and temperature drift), and a device
// that trips it is evicted — or quarantined under WithRecharacterization —
// without failing readers as long as one healthy device remains.
//
// The embedded servingCore carries the members and implements construction,
// Read, ReadBits, ReadRaw, Uint64, Close and the Stats snapshot — the same
// implementations a Generator (a 1-member core) runs on.
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
// watched only under WithHealthTests (implied by WithDRBG and
// WithRecharacterization), whose default action for a pool is
// HealthActionEvict: a device that trips a test — including a bias window
// drifting from 50/50 or a temperature drifting from its open-time baseline
// — is evicted: its engine stops, its remaining bits are discarded, and
// reads continue seamlessly from the surviving devices. The last healthy
// device is never evicted (degraded output beats no output; the breakdown in
// Stats reports the violation instead). Stats carries a per-device breakdown
// in Stats.Devices.
//
// ctx cancellation stops every member engine. Close releases all members.
// OpenPool checks the pool-only options; the members are built by the same
// constructor Open uses, so a 1-member pool and a Generator over the same
// profile start identically.
func OpenPool(ctx context.Context, profiles []*Profile, opts ...Option) (*Pool, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("drange: OpenPool needs at least one profile")
	}
	o := buildOptions(opts)
	if o.device != nil {
		return nil, fmt.Errorf("drange: WithDevice does not apply to OpenPool (it opens one device per profile); use WithDeviceBackend or open single Sources")
	}
	for i := range o.deviceBackends {
		if i < 0 || i >= len(profiles) {
			return nil, fmt.Errorf("drange: WithDeviceBackend index %d outside the %d profiles", i, len(profiles))
		}
	}
	p := &Pool{}
	if err := p.open(ctx, profiles, o); err != nil {
		return nil, err
	}
	return p, nil
}

// Devices returns the number of devices the pool opened (evicted included).
func (p *Pool) Devices() int { return len(p.members) }

// Stats returns the pool's aggregate accounting plus the per-device
// breakdown in Stats.Devices. Shard entries across all devices are
// flattened into Stats.Shards with globally renumbered shard indices;
// evicted devices keep reporting the totals they reached before eviction.
func (p *Pool) Stats() Stats { return p.stats() }

// stats builds the Stats of both facades: the aggregate accounting plus the
// per-device breakdown, which Generator.Stats drops.
func (c *servingCore) stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := Stats{BitsDelivered: c.delivered.Load()}
	if c.testsEnabled {
		out.Health = &HealthStats{SymbolBits: c.testsPolicy.SymbolBits, StartupPassed: true}
	}
	out.TierRaw = TierStats{Reads: c.tierRawReads.Load(), Bytes: c.tierRawBytes.Load()}
	out.TierDRBG = TierStats{Reads: c.tierDRBGReads.Load(), Bytes: c.tierDRBGBytes.Load()}
	if c.drbgOn {
		out.DRBG = &DRBGStats{
			Algorithm:            string(c.drbgPolicy.Algorithm),
			PredictionResistance: c.drbgPolicy.PredictionResistance,
		}
	}
	if c.recharOn {
		out.Lifecycle = &LifecycleStats{}
	}
	bitsPerNS := 0.0
	shardIdx := 0
	for _, m := range c.members {
		est := statsFromEngine(m.eng.Stats())
		state := m.lifecycle()
		temp := m.evictedTempC // an evicted member's device may be closed
		if state != memberEvicted {
			temp = m.pub.Temperature()
		}
		ds := PoolDeviceStats{
			Device:              m.idx,
			Serial:              m.profile.Serial,
			Backend:             m.backend,
			Healthy:             state == memberServing,
			Evicted:             state == memberEvicted,
			State:               state.String(),
			Reason:              m.reason,
			TemperatureC:        temp,
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
			agg.TempTrips += ds.Health.TempTrips
			agg.TotalTrips += ds.Health.TotalTrips
			agg.BlockedWindows += ds.Health.BlockedWindows
			agg.LongestRun = max(agg.LongestRun, ds.Health.LongestRun)
			agg.BiasDelta = max(agg.BiasDelta, ds.Health.BiasDelta)
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

var _ Source = (*Pool)(nil)
