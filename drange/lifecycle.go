package drange

// The self-healing pool lifecycle. A pool opened WithRecharacterization does
// not lose a drifting member forever: retireLocked quarantines it instead of
// evicting, and the single background recharacterizer goroutine below picks
// it up, re-runs a targeted characterization pass over the banks the member's
// profile selects (profiler.Recharacterize — one narrowing screen plus a
// stability loop per bank, not the full Section 6.1 sweep), folds the result
// into a versioned ProfileDelta, rebuilds the member's engine from the
// updated profile, and readmits it with a hot profile swap. The rest of the
// pool keeps serving throughout: quarantine, re-characterization and
// readmission all happen off the read paths, which only ever observe the
// member's atomic lifecycle state and published engine pointer.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/profiler"
)

// RecharacterizationPolicy controls the self-healing lifecycle attached with
// WithRecharacterization. Like HealthTestPolicy, zero fields take defaults so
// partial policies stay ergonomic.
type RecharacterizationPolicy struct {
	// Rounds is the number of stability rounds of the targeted pass (at
	// least 2; 0 selects 3). Each round measures every candidate cell's
	// failure probability once; cells whose per-round probability drifts are
	// rejected.
	Rounds int
	// Iterations is the number of reduced-latency reads per cell per round
	// (0 selects 60). More iterations sharpen the failure-probability
	// estimate at the cost of a longer pass.
	Iterations int
	// ScreenIterations is the iteration count of the narrowing screen pass
	// that bounds the region before the rounds run; 0 uses Iterations.
	ScreenIterations int
	// MaxDrift rejects cells whose per-round failure probability deviates
	// from their mean by more than this in any round (0 selects 0.15).
	MaxDrift float64
	// MaxAttempts is the number of failed re-characterization passes after
	// which a member is evicted terminally (0 selects 2).
	MaxAttempts int
	// Disabled turns the lifecycle off: health violations evict terminally,
	// as without WithRecharacterization.
	Disabled bool
}

// resolveRechar resolves WithRecharacterization. Only a health-test trip
// quarantines a member, so the lifecycle implies the default health tests
// when none are given and rejects an explicitly Disabled policy, as WithDRBG
// does.
func (o *options) resolveRechar() (RecharacterizationPolicy, bool, error) {
	if o.rechar == nil || o.rechar.Disabled {
		return RecharacterizationPolicy{}, false, nil
	}
	if o.healthTests != nil && o.healthTests.Disabled {
		return RecharacterizationPolicy{}, false, fmt.Errorf("drange: WithRecharacterization requires the online health tests (only a health-test trip quarantines a member); remove the Disabled health-test policy or disable the lifecycle")
	}
	if o.healthTests == nil {
		o.healthTests = &HealthTestPolicy{}
	}
	return o.rechar.withDefaults(), true, nil
}

func (p RecharacterizationPolicy) withDefaults() RecharacterizationPolicy {
	if p.Rounds == 0 {
		p.Rounds = 3
	}
	if p.Iterations == 0 {
		p.Iterations = 60
	}
	if p.MaxDrift == 0 {
		p.MaxDrift = 0.15
	}
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 2
	}
	return p
}

// recharacterizer is the pool's single background lifecycle goroutine: it
// drains quarantined members off recharCh and runs each through the
// re-characterize → readmit pass. One goroutine (not one per member) keeps
// the simulated-device profiling passes serial, so two quarantined members
// never compete for host CPU, and makes pass ordering deterministic.
func (c *servingCore) recharacterizer(ctx context.Context) {
	defer c.recharWG.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case m := <-c.recharCh:
			c.recharacterizeMember(ctx, m)
		}
	}
}

// recharacterizeMember runs one full quarantine→serving pass over m: the
// targeted profiling pass, the profile-delta append, the engine rebuild and
// the readmission swap. On failure the member returns to quarantined and is
// re-enqueued, until the policy's attempt budget is spent — then it is
// evicted terminally. A failure during shutdown leaves the member
// quarantined for closeMembers to release.
func (c *servingCore) recharacterizeMember(ctx context.Context, m *servingMember) {
	if ctx.Err() != nil || c.closed.Load() {
		return
	}
	start := time.Now()
	c.mu.Lock()
	if m.lifecycle() != memberQuarantined {
		c.mu.Unlock()
		return
	}
	m.state.Store(int32(memberRecharacterizing))
	m.recharacterizations++
	prof, cause := m.profile, m.reason
	c.mu.Unlock()

	next, err := c.recharacterizeProfile(ctx, m, prof, cause)
	if err == nil {
		err = c.readmit(m, next, start)
	}
	if err == nil {
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	m.recharFailures++
	m.recharAttempts++
	m.state.Store(int32(memberQuarantined))
	if c.closed.Load() || ctx.Err() != nil {
		// Shutdown race: the pass lost to Close. Stay quarantined so
		// closeMembers releases the still-open device.
		return
	}
	if m.recharAttempts >= c.recharPolicy.MaxAttempts {
		c.evictLocked(m, fmt.Sprintf("re-characterization failed after %d attempts: %v (quarantined for: %s)",
			m.recharAttempts, err, cause))
		return
	}
	m.reason = fmt.Sprintf("re-characterization attempt %d failed: %v (quarantined for: %s)",
		m.recharAttempts, err, cause)
	select {
	case c.recharCh <- m:
	default:
	}
}

// recharacterizeProfile runs the targeted pass over every bank prof currently
// selects and returns a new sealed profile with the results appended as one
// ProfileDelta. Banks whose cells no longer support a valid word pair are
// named in the delta without a selection, dropping them from generation; the
// pass fails if no bank survives.
func (c *servingCore) recharacterizeProfile(ctx context.Context, m *servingMember, prof *Profile, cause string) (*Profile, error) {
	pat, err := parsePattern(prof.Characterization.Pattern)
	if err != nil {
		return nil, err
	}
	// The acceptance band re-admits cells still behaving as they were
	// originally accepted: a failure probability within the
	// characterization's MaxBiasDelta of 0.5 (Tolerance bounds symbol counts,
	// not the failure probability). Narrow bounds are widened to the paper's
	// Section 5.2 working band of 0.5 ± 0.1 — tighter bands are unresolvable
	// over a handful of 60-iteration rounds.
	band := prof.Characterization.MaxBiasDelta
	if band < 0.1 {
		band = 0.1
	}
	rcfg := profiler.RecharConfig{
		Profile: profiler.Config{
			TRCDNS:     m.trcdNS,
			Iterations: c.recharPolicy.Iterations,
			Pattern:    pat,
		},
		ScreenIterations: c.recharPolicy.ScreenIterations,
		Rounds:           c.recharPolicy.Rounds,
		MaxDrift:         c.recharPolicy.MaxDrift,
		LowFprob:         0.5 - band,
		HighFprob:        0.5 + band,
	}
	banks := make([]int, 0, len(prof.EffectiveSelections()))
	for _, s := range prof.EffectiveSelections() {
		banks = append(banks, s.Bank)
	}
	sort.Ints(banks)

	ctrl := memctrl.NewController(m.dev)
	wordBits := prof.Geometry.WordBits
	var deltaCells []Cell
	var coreCells []core.RNGCell
	for _, bank := range banks {
		// Shutdown must not wait out a multi-bank pass.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		region := profiler.Region{
			Bank:      bank,
			RowCount:  prof.Characterization.RowsPerBank,
			WordCount: prof.Characterization.WordsPerRow,
		}
		res, err := profiler.Recharacterize(ctrl, region, rcfg)
		if err != nil {
			return nil, fmt.Errorf("re-characterizing bank %d: %w", bank, err)
		}
		for _, sc := range res.Stable {
			cc := core.RNGCell{
				Addr:          sc.Addr,
				WordIdx:       sc.Addr.Col / wordBits,
				Fprob:         sc.MeanFprob,
				SymbolEntropy: symbolEntropy3(sc.MeanFprob),
			}
			coreCells = append(coreCells, cc)
			deltaCells = append(deltaCells, cellFromCore(cc))
		}
	}
	var deltaSels []Selection
	if len(coreCells) > 0 {
		sels, err := core.SelectBankWords(coreCells)
		if err == nil {
			for _, s := range sels {
				deltaSels = append(deltaSels, selectionFromCore(s))
			}
		}
	}
	if len(deltaSels) == 0 {
		return nil, fmt.Errorf("no bank retained a valid RNG word pair (%d stable cells across %d banks)",
			len(deltaCells), len(banks))
	}
	d := &ProfileDelta{
		Version:      ProfileDeltaVersion,
		Sequence:     len(prof.Deltas) + 1,
		BaseChecksum: prof.Checksum,
		Reason:       cause,
		Characterization: DeltaCharacterization{
			TRCDNS:           rcfg.Profile.TRCDNS,
			Iterations:       rcfg.Profile.Iterations,
			ScreenIterations: rcfg.ScreenIterations,
			Rounds:           rcfg.Rounds,
			MaxDrift:         rcfg.MaxDrift,
			LowFprob:         rcfg.LowFprob,
			HighFprob:        rcfg.HighFprob,
			Pattern:          prof.Characterization.Pattern,
		},
		Banks:      banks,
		Cells:      deltaCells,
		Selections: deltaSels,
	}
	if err := d.Seal(); err != nil {
		return nil, err
	}
	return prof.AppendDelta(d)
}

// symbolEntropy3 models the 3-bit symbol entropy of a cell with failure
// probability p: three independent draws give 3·H2(p) bits per symbol,
// capped at the 3-bit maximum (SymbolBits in the identification defaults).
func symbolEntropy3(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	h := -p*math.Log2(p) - (1-p)*math.Log2(1-p)
	if e := 3 * h; e < 3 {
		return e
	}
	return 3
}

// readmit builds a fresh engine over m's re-characterized profile, self-tests
// it unless startup tests are off, and swaps it into the member — the hot
// profile swap. The engine build and startup test run off-lock (they read the
// device, not pool state); only the swap itself holds mu.
func (c *servingCore) readmit(m *servingMember, prof *Profile, start time.Time) error {
	eng, sels, err := c.buildEngine(m, prof)
	if err != nil {
		return err
	}
	m.state.Store(int32(memberReadmitting))
	if c.testsPolicy.StartupBits > 0 {
		sample, err := eng.ReadBits(c.testsPolicy.StartupBits)
		if err == nil {
			err = runStartup(sample, c.testsPolicy, m.idx)
		}
		if err != nil {
			eng.Close()
			return fmt.Errorf("readmission startup health test: %w", err)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		eng.Close()
		return fmt.Errorf("pool closed during readmission")
	}
	m.profile = prof
	m.eng, m.sels = eng, sels
	m.cur, m.curBits = 0, 0
	// The re-characterized operating point is the new health baseline: the
	// monitor's windows restart clean and temperature drift is measured from
	// now. startupOK keeps the value open gave it: the member passed its
	// readmission startup test, or startup tests are off.
	m.monitor.Reset()
	m.monitor.Rebaseline()
	m.reason = ""
	m.readmissions++
	m.lastRecharMS = float64(time.Since(start)) / float64(time.Millisecond)
	m.recharAttempts = 0
	m.state.Store(int32(memberServing))
	// Re-arm the member's DRBG best-effort: a reseed folds fresh screened
	// entropy from the rebuilt engine into the existing state; a member that
	// never got a DRBG (evicted before instantiation never happens here, but
	// a pool without WithDRBG has none) is left alone. Errors surface when
	// the member is next picked to serve.
	if c.drbgOn && m.drbg != nil {
		_ = c.reseedMemberLocked(m)
	}
	return nil
}
