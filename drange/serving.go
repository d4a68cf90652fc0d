package drange

// The serving core shared by Generator and Pool. A Generator is a 1-member
// pool: both facades embed a servingCore built by the same constructor, so
// construction, the scheduler, the lock-free fast path, the locked path, the
// DRBG tier, the health/postprocess attachment points, the tier accounting
// and the Stats snapshot each exist exactly once. The single flag selects the
// few surface differences a 1-member core keeps — error wording ("source"
// versus "pool"), bare error propagation instead of per-device wrapping, the
// HealthActionDefault resolution and Close's error report. Device health is
// judged in one place on both: the member's health.Monitor, attached by
// WithHealthTests.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/health"
)

// memberState is the lifecycle of one serving member. A member starts
// serving; a health-test trip retires it — to quarantined when
// WithRecharacterization is attached (its engine stops but its device stays
// open), to the terminal evicted state otherwise. The background
// recharacterizer moves quarantined members through recharacterizing (the
// targeted profiling pass runs over the open device) and readmitting (the
// fresh engine is startup-tested and swapped in) back to serving; a pass
// that exhausts its attempts ends in evicted.
type memberState int32

const (
	memberServing memberState = iota
	memberQuarantined
	memberRecharacterizing
	memberReadmitting
	memberEvicted
)

// String returns the lifecycle state name used in Stats and reports.
func (s memberState) String() string {
	switch s {
	case memberServing:
		return "serving"
	case memberQuarantined:
		return "quarantined"
	case memberRecharacterizing:
		return "recharacterizing"
	case memberReadmitting:
		return "readmitting"
	case memberEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("memberState(%d)", int32(s))
	}
}

// servingMember is one device of a serving core: its profile, backend device,
// harvesting engine, health accounting, and the partially consumed packed
// 64-bit word between engine and scheduler. A Generator has exactly one
// member with idx -1 (the Device value HealthError reports for single-device
// Sources); pool members are numbered from 0.
type servingMember struct {
	idx     int
	profile *Profile
	backend string
	pub     Device
	eng     *core.Engine
	ownsDev bool

	// sels are the core selections eng harvests, resolved from profile;
	// profile, eng and sels change together, only on readmission.
	sels []core.BankSelection

	// dev is the internal device handle the background recharacterizer
	// profiles and rebuilds engines over; shards and trcdNS are the
	// engine-rebuild parameters fixed at open time.
	dev    device.Device
	shards int
	trcdNS float64

	// evictedTempC is the device temperature read at eviction, reported
	// once the device is closed.
	evictedTempC float64 // drange:guardedby mu

	// state is the member's lifecycle state, lock-free so the concurrent
	// read fast path skips non-serving members without the core mutex;
	// reason is guarded by mu. The zero value is memberServing.
	state  atomic.Int32 // drange:atomic
	reason string       // drange:guardedby mu

	// fastEng publishes eng to the lock-free fast path, which runs only on
	// cores without health tests — never on a self-healing pool, so the
	// engine it holds is the one built at open. Eviction clears it, and a
	// reader that loads nil re-picks.
	fastEng atomic.Pointer[core.Engine] // drange:atomic

	// Lifecycle accounting (guarded by mu): readmissions counts
	// quarantine→serving round trips, recharacterizations counts targeted
	// re-characterization passes started, recharFailures counts failed
	// passes, lastRecharMS is the wall-clock duration of the last pass that
	// ended in readmission, and recharAttempts counts consecutive failed
	// passes (MaxAttempts of them evict the member terminally).
	readmissions        int64   // drange:guardedby mu
	recharacterizations int64   // drange:guardedby mu
	recharFailures      int64   // drange:guardedby mu
	lastRecharMS        float64 // drange:guardedby mu
	recharAttempts      int     // drange:guardedby mu

	// fetched counts bits pulled from this member's engine — the load
	// metric of the least-loaded scheduler. Batches discarded under
	// HealthActionBlock count too, so a tripping member cannot pin the
	// scheduler while healthy members idle. delivered counts bits that
	// reached callers. Both are atomics: the concurrent read fast path
	// updates them without the core mutex.
	fetched   atomic.Int64 // drange:atomic
	delivered atomic.Int64 // drange:atomic

	// monitor streams this member's harvested bits through the online
	// health tests and checks its device's temperature drift — the one
	// source of the member's health verdicts (nil unless WithHealthTests is
	// attached);
	// blockedWindows counts batches discarded under HealthActionBlock and
	// startupOK records the startup self-test outcome.
	monitor        *health.Monitor // drange:guardedby mu
	blockedWindows int64           // drange:guardedby mu
	startupOK      bool            // drange:guardedby mu

	// blockedEpoch/blockedInRead implement the per-member HealthActionBlock
	// budget: blockedInRead counts batches this member discarded within the
	// read identified by the core's readEpoch, so one member exhausting its
	// budget is reported without a shared counter throttling the others.
	blockedEpoch  int64 // drange:guardedby mu
	blockedInRead int   // drange:guardedby mu

	// drbg is this member's DRBG instance under WithDRBG (nil otherwise, or
	// when the member was evicted before instantiation): each member expands
	// seeds harvested from its own device through its own monitor, so one
	// drifting device can never contaminate another member's DRBG state.
	drbg *drbgState // drange:guardedby mu

	// pendingDRBG accumulates the bits this member generated for an
	// in-flight DRBG-tier read; they fold into delivered only when the whole
	// read succeeds, so a chunk failure after earlier successful chunks
	// cannot leave member deliveries exceeding what callers received.
	pendingDRBG int64 // drange:guardedby mu

	// cur holds up to 64 bits fetched from the engine but not yet handed
	// out, packed with the next undelivered bit at the most significant
	// position (locked path only).
	cur     uint64 // drange:guardedby mu
	curBits int    // drange:guardedby mu
}

// lifecycle returns the member's current lifecycle state.
func (m *servingMember) lifecycle() memberState { return memberState(m.state.Load()) }

// serving reports whether the member is schedulable. Any other lifecycle
// state — quarantined, recharacterizing, readmitting or evicted — keeps the
// member out of every scheduling loop.
func (m *servingMember) serving() bool { return m.state.Load() == int32(memberServing) }

// clearComplaintLocked runs after m's monitor passed a batch: if a bias
// window completed cleanly in it (the monitor counted cleanBefore clean
// windows before the batch), a retained last member's complaint is cleared,
// so a transient excursion does not flag the device forever. A serving
// member's reason holds nothing but that complaint. Callers hold mu.
func (m *servingMember) clearComplaintLocked(cleanBefore int64) {
	if m.monitor.Counters().CleanWindows != cleanBefore {
		m.reason = ""
	}
}

// takeLocked removes and returns the top k bits of the member's buffered
// word (k <= curBits), first stream bit at the most significant position of
// the k-bit result.
func (m *servingMember) takeLocked(k int) uint64 {
	v := m.cur >> uint(64-k)
	m.cur <<= uint(k)
	m.curBits -= k
	m.delivered.Add(int64(k))
	return v
}

// servingCore is the shared serving machinery behind Generator and Pool. The
// facades embed it, so construction (open), Read, ReadBits, ReadRaw, Uint64,
// Close and the Stats snapshot (stats) are the core's single
// implementations; the facades add only their option checks, and a
// Generator drops the per-device breakdown from Stats.
type servingCore struct {
	mu sync.Mutex
	// single marks a Generator core (one member, idx -1): closed-source
	// errors say "source", member errors propagate bare instead of wrapped
	// per device, HealthActionDefault (and a window-level trip under
	// HealthActionBlock) resolves to HealthActionError, and Close reports
	// engine/device release errors.
	single  bool
	members []*servingMember
	// testsEnabled/testsPolicy carry the WithHealthTests policy resolved
	// with the surface default action.
	testsEnabled bool
	testsPolicy  HealthTestPolicy
	post         *postChain
	// cancel stops the member engines; Close calls it before releasing the
	// members.
	cancel context.CancelFunc

	// remainder reports whether any member holds sub-word buffered bits
	// from a bit-granular read; while set, Read takes the locked path so
	// those bits are served in order before fresh engine words (mixing
	// ReadBits and Read must drain one well-defined stream).
	remainder atomic.Bool // drange:atomic

	// readEpoch numbers locked reads for the per-member blocked budget;
	// blockCause remembers why a member was benched in the current read, so
	// a read that runs out of members reports the health trip rather than a
	// bare scheduling error.
	readEpoch       int64        // drange:guardedby mu
	blockCause      *HealthError // drange:guardedby mu
	blockCauseEpoch int64        // drange:guardedby mu

	// drbgOn/drbgPolicy carry the resolved WithDRBG policy (both fixed at
	// open time; per-member DRBG state lives on the members).
	drbgOn     bool
	drbgPolicy DRBGPolicy

	// pctx is the context the member engines run under; the background
	// recharacterizer builds readmitted engines on it so Close stops them
	// with everything else.
	pctx context.Context
	// recharOn/recharPolicy carry the resolved WithRecharacterization
	// policy. recharCh feeds quarantined members to the recharacterizer
	// goroutine — buffered to the member count, so quarantineLocked never
	// blocks under mu — and recharWG tracks the goroutine for Close.
	recharOn     bool
	recharPolicy RecharacterizationPolicy
	recharCh     chan *servingMember
	recharWG     sync.WaitGroup

	// Per-tier serving accounting (atomic: the raw tier's lock-free fast
	// path updates them without mu). The counters advance only when the
	// read succeeds: a failed read returns (0, err) and is invisible here.
	tierRawReads  atomic.Int64 // drange:atomic
	tierRawBytes  atomic.Int64 // drange:atomic
	tierDRBGReads atomic.Int64 // drange:atomic
	tierDRBGBytes atomic.Int64 // drange:atomic

	delivered atomic.Int64 // drange:atomic
	closed    atomic.Bool  // drange:atomic
}

// errClosed is the closed-source error in the surface's wording.
func (c *servingCore) errClosed() error {
	if c.single {
		return fmt.Errorf("drange: source is closed")
	}
	return fmt.Errorf("drange: pool is closed")
}

// memberErr reports err from the device of member idx: a pool names the
// device, with what was under way; a Generator has only the one device, so
// its errors propagate bare.
func (c *servingCore) memberErr(idx int, what string, err error) error {
	if c.single {
		return err
	}
	return fmt.Errorf("drange: pool device %d%s: %w", idx, what, err)
}

// open builds one member per profile and brings the core up to serving: the
// one construction path behind Open and OpenPool, which set only single
// beforehand. The post-processing chain is built before any device
// opens, and a failed open stops every engine it started and releases every
// device it opened — never a WithDevice device.
//
//drange:holds mu construction: the core is not published until open returns
func (c *servingCore) open(ctx context.Context, profiles []*Profile, o *options) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := o.rejectCharacterizationOnly(); err != nil {
		return err
	}
	// Resolve the DRBG tier and the lifecycle first: both imply the health
	// tests, so the member monitors built below must already see the
	// implied policy.
	drbgPolicy, drbgOn, err := o.resolveDRBG()
	if err != nil {
		return err
	}
	recharPolicy, recharOn, err := o.resolveRechar()
	if err != nil {
		return err
	}
	shards, err := o.shardCount()
	if err != nil {
		return err
	}
	if o.healthTests != nil && !o.healthTests.Disabled {
		c.testsEnabled = true
		c.testsPolicy = o.healthTests.withDefaults(!c.single)
	}
	if len(o.post) > 0 {
		if c.post, err = newPostChain(o.post); err != nil {
			return err
		}
	}
	c.pctx, c.cancel = context.WithCancel(ctx)
	fail := func(err error) error {
		c.closeMembers()
		c.cancel()
		return err
	}
	for i, profile := range profiles {
		idx := i
		if c.single {
			idx = -1 // the Device a Generator's HealthErrors report
		}
		if err := c.openMember(idx, profile, o, shards); err != nil {
			return fail(c.memberErr(idx, "", err))
		}
	}
	if err := c.runStartupTests(); err != nil {
		return fail(err)
	}
	if drbgOn {
		// Instantiate the DRBG tier from health-screened seeds: each ledger
		// registers as its member monitor's credit sink before the seed
		// harvest, so even the first seed accrues toward the credit windows.
		c.drbgOn, c.drbgPolicy = true, drbgPolicy
		if err := c.instantiateDRBGs(); err != nil {
			return fail(err)
		}
	}
	// The recharacterizer starts last, once the member set is final: members
	// retired before this point (startup failures are terminal anyway) were
	// never quarantined, so the channel starts empty.
	if recharOn {
		c.recharOn, c.recharPolicy = true, recharPolicy
		c.recharCh = make(chan *servingMember, len(c.members))
		c.recharWG.Add(1)
		go c.recharacterizer(c.pctx)
	}
	return nil
}

// openMember opens the device for one profile — through WithDevice, the
// member's WithDeviceBackend override, WithBackend or the sim default — and
// starts its engine and health monitor. The member joins c.members as soon as
// its device is open, so a failure after that point releases the device with
// the rest of the failed construction.
//
//drange:holds mu construction: runs from open before the core is published
func (c *servingCore) openMember(idx int, profile *Profile, o *options, shards int) error {
	if profile == nil {
		return fmt.Errorf("drange: nil profile")
	}
	if err := profile.Validate(); err != nil {
		return err
	}
	if o.manufacturer != nil && *o.manufacturer != profile.Manufacturer {
		return fmt.Errorf("drange: device mismatch: profile was characterized on manufacturer %q, not %q", profile.Manufacturer, *o.manufacturer)
	}
	if o.serial != nil && *o.serial != profile.Serial {
		return fmt.Errorf("drange: device mismatch: profile was characterized on serial %d, not %d", profile.Serial, *o.serial)
	}
	if o.geometry != nil && *o.geometry != profile.Geometry {
		return fmt.Errorf("drange: device mismatch: profile geometry %+v differs from requested %+v", profile.Geometry, *o.geometry)
	}
	deterministic := profile.Characterization.Deterministic
	if o.deterministic != nil {
		deterministic = *o.deterministic
	}
	trcd := profile.Characterization.TRCDNS
	if o.trcdNS != nil {
		trcd = *o.trcdNS
	}
	memberOpts := *o
	if spec, ok := o.deviceBackends[idx]; ok {
		memberOpts.backend = &spec
	}
	dev, pub, backend, err := memberOpts.resolveDevice(profile.Manufacturer, profile.Serial, deterministic, profile.Geometry)
	if err != nil {
		return err
	}
	m := &servingMember{
		idx:     idx,
		profile: profile,
		backend: backend,
		pub:     pub,
		dev:     dev,
		shards:  shards,
		trcdNS:  trcd,
		ownsDev: o.device == nil,
	}
	c.members = append(c.members, m)
	// Backends construct to the profile's identity, but a WithDevice device
	// is whatever the caller handed us, and a backend may ignore the request:
	// verify the device before sampling — RNG-cell locations are per-device
	// process variation, and reading another device's cells would not be
	// random.
	if s := pub.Serial(); s != profile.Serial {
		return fmt.Errorf("drange: device mismatch: profile was characterized on serial %d, but the device reports %d", profile.Serial, s)
	}
	if dg := pub.Geometry(); dg != profile.Geometry {
		return fmt.Errorf("drange: device mismatch: profile geometry %+v differs from the device's %+v", profile.Geometry, dg)
	}
	// The monitor is built before the engine starts harvesting, so its
	// temperature baseline is the device's temperature at open.
	if c.testsEnabled {
		cfg := c.testsPolicy.config()
		cfg.Temperature = pub.Temperature
		mon, err := health.New(cfg)
		if err != nil {
			return fmt.Errorf("drange: %w", err)
		}
		m.monitor, m.startupOK = mon, true
	}
	eng, sels, err := c.buildEngine(m, profile)
	if err != nil {
		return err
	}
	m.eng, m.sels = eng, sels
	m.fastEng.Store(eng)
	return nil
}

// buildEngine starts a harvesting engine over m's device for prof's
// effective selections, under the core's engine context, and returns it with
// those selections. Construction and readmission both build engines here.
func (c *servingCore) buildEngine(m *servingMember, prof *Profile) (*core.Engine, []core.BankSelection, error) {
	pat, err := parsePattern(prof.Characterization.Pattern)
	if err != nil {
		return nil, nil, err
	}
	sels, err := coreSelections(prof.EffectiveCells(), prof.EffectiveSelections())
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.NewEngine(c.pctx, m.dev, sels, core.EngineConfig{
		Shards: m.shards,
		TRNG:   core.TRNGConfig{TRCDNS: m.trcdNS, Pattern: pat},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("drange: %w", err)
	}
	return eng, sels, nil
}

// maxReadChunkBytes bounds how much of an oversized Read request the locked
// serving path processes per round, so a huge caller buffer behind a monitor
// or post-processing chain is streamed through bounded working memory rather
// than materialised in one piece.
const maxReadChunkBytes = 1 << 16

// Healthy returns the number of devices currently serving reads.
func (c *servingCore) Healthy() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.healthyLocked()
}

// healthyLocked counts serving members. Callers hold mu.
func (c *servingCore) healthyLocked() int {
	n := 0
	for _, m := range c.members {
		if m.serving() {
			n++
		}
	}
	return n
}

// evictLocked removes a member from scheduling terminally: its engine stops,
// its device closes, and its buffered bits are discarded. The last healthy
// member is never evicted — the reason is recorded for Stats but reads
// continue. Callers hold mu.
func (c *servingCore) evictLocked(m *servingMember, reason string) {
	if m.lifecycle() == memberEvicted {
		return
	}
	if m.serving() && c.healthyLocked() <= 1 {
		m.reason = fmt.Sprintf("unhealthy but retained (last device): %s", reason)
		return
	}
	m.fastEng.Store(nil)
	m.state.Store(int32(memberEvicted))
	m.reason = reason
	m.cur, m.curBits = 0, 0
	m.evictedTempC = m.pub.Temperature()
	m.eng.Close()
	if m.ownsDev {
		closeDevice(m.pub)
	}
}

// retireLocked takes a member whose health monitor tripped out of serving:
// quarantined for background re-characterization when
// WithRecharacterization is attached and attempts remain, terminally evicted
// otherwise. The last healthy member is never retired — the reason is
// recorded for Stats but reads continue (degraded output beats no output)
// until a clean bias window clears it. Hard engine failures do not come
// through here: a member whose engine died is evicted directly, since its
// device cannot be assumed profileable. Callers hold mu.
func (c *servingCore) retireLocked(m *servingMember, reason string) {
	if !m.serving() {
		return
	}
	if c.healthyLocked() <= 1 {
		m.reason = fmt.Sprintf("unhealthy but retained (last device): %s", reason)
		return
	}
	if c.recharOn && m.recharAttempts < c.recharPolicy.MaxAttempts {
		c.quarantineLocked(m, reason)
		return
	}
	c.evictLocked(m, reason)
}

// quarantineLocked hands a drifting member to the background
// recharacterizer: its engine stops and its buffered bits are discarded, but
// — unlike eviction — its device stays open so the targeted
// re-characterization pass can profile it. Callers hold mu.
func (c *servingCore) quarantineLocked(m *servingMember, reason string) {
	m.state.Store(int32(memberQuarantined))
	m.reason = reason
	m.cur, m.curBits = 0, 0
	m.eng.Close()
	select {
	case c.recharCh <- m:
	default:
		// Unreachable: the channel is buffered to the member count and a
		// member is enqueued at most once per quarantine.
	}
}

// nextMemberLocked picks the healthy member with the least load (fewest bits
// fetched; ties break to the lowest index, keeping the schedule — and hence
// the output stream — deterministic under deterministic noise). Callers hold
// mu.
func (c *servingCore) nextMemberLocked() *servingMember {
	var best *servingMember
	var bestFetched int64
	for _, m := range c.members {
		if !m.serving() || c.blockedOutLocked(m) {
			continue
		}
		if f := m.fetched.Load(); best == nil || f < bestFetched {
			best, bestFetched = m, f
		}
	}
	return best
}

// tripAction resolves the response to a health-test trip. Discarding the
// batch that tripped cannot hold back a window-level verdict — bias or
// temperature drift judges a whole bias window, whose earlier batches were
// already served — so under HealthActionBlock those verdicts take the
// surface's other action instead: a pool retires the member, a Generator
// fails the read.
func (c *servingCore) tripAction(v *health.Violation) HealthAction {
	a := c.testsPolicy.OnFailure
	if a != HealthActionBlock || (v.Test != health.TestBias && v.Test != health.TestTemp) {
		return a
	}
	if c.single {
		return HealthActionError
	}
	return HealthActionEvict
}

// blockedOutLocked reports whether m exhausted its HealthActionBlock budget
// within the current read and sits benched until the next one. Callers hold
// mu.
func (c *servingCore) blockedOutLocked(m *servingMember) bool {
	return c.testsEnabled && m.blockedEpoch == c.readEpoch &&
		m.blockedInRead >= c.testsPolicy.MaxBlockedWindows
}

// nextMemberWithBitsLocked returns the least-loaded healthy member with
// buffered bits, fetching one packed 64-bit word from its engine when its
// buffer is empty — the per-fetch granularity that keeps member interleaving
// fine-grained for the health monitor while amortising the engine's consumer
// lock. A member whose engine fails is evicted and scheduling re-picks; the
// call only fails once no healthy member remains (or a health-test policy
// says so). Callers hold mu.
func (c *servingCore) nextMemberWithBitsLocked() (*servingMember, error) {
	for {
		m := c.nextMemberLocked()
		if m == nil {
			// Members benched over their blocked budget don't count as
			// evicted; if one of them is why nobody can serve, surface the
			// health trip (a source of only dead-blocking devices must fail
			// loudly, not stall).
			if c.blockCause != nil && c.blockCauseEpoch == c.readEpoch {
				return nil, c.blockCause
			}
			return nil, fmt.Errorf("drange: pool has no healthy devices left (%s)", c.evictionSummaryLocked())
		}
		if m.curBits > 0 {
			return m, nil
		}
		var buf [8]byte
		if err := m.eng.ReadPacked(buf[:]); err != nil {
			// Engine failure (device error, cancelled context, closed
			// engine): evict and reschedule. The eviction keeps the last
			// member, so a pool whose every engine is dead surfaces the
			// error.
			if c.healthyLocked() <= 1 {
				return nil, c.memberErr(m.idx, " (last healthy device)", err)
			}
			c.evictLocked(m, fmt.Sprintf("engine failure: %v", err))
			continue
		}
		if m.monitor != nil {
			clean := m.monitor.Counters().CleanWindows
			if v := m.monitor.IngestPacked(buf[:], 64); v != nil {
				switch c.tripAction(v) {
				case HealthActionError:
					return nil, &HealthError{Test: string(v.Test), Device: m.idx, Detail: v.Detail}
				case HealthActionBlock:
					// Discard the dirty batch (an RCT or APT trip) and
					// refetch. The discarded batch still counts as load,
					// so the least-loaded scheduler rotates to healthy
					// members instead of re-picking the tripping one
					// forever; the budget is per member per read, so a
					// member that exhausts it is benched for the rest of
					// the read while the healthy members keep serving.
					m.monitor.Reset()
					m.blockedWindows++
					m.fetched.Add(64)
					if m.blockedEpoch != c.readEpoch {
						m.blockedEpoch, m.blockedInRead = c.readEpoch, 0
					}
					m.blockedInRead++
					if m.blockedInRead >= c.testsPolicy.MaxBlockedWindows {
						c.blockCause = &HealthError{Test: "blocked", Device: m.idx, Detail: fmt.Sprintf(
							"no clean batch after discarding %d (last violation: %s: %s)", m.blockedInRead, v.Test, v.Detail)}
						c.blockCauseEpoch = c.readEpoch
					}
					continue
				default: // HealthActionEvict
					c.retireLocked(m, fmt.Sprintf("health test %s tripped: %s", v.Test, v.Detail))
					if !m.serving() {
						continue
					}
					// The last healthy member is retained (degraded
					// output beats no output): serve the batch with the
					// violation recorded in Reason and the trip counters.
					m.monitor.Reset()
				}
			} else {
				m.clearComplaintLocked(clean)
			}
		}
		m.cur, m.curBits = binary.BigEndian.Uint64(buf[:]), 64
		m.fetched.Add(64)
		return m, nil
	}
}

// readPackedLocked fills dst with packed bytes assembled across the healthy
// members, least-loaded first. Each picked member is drained of everything
// it has buffered (up to the space left) before the scheduler re-picks —
// the same take-all granularity as readBitsLocked, so byte- and
// bit-granular reads with the same call boundaries serve the same stream.
// Callers hold mu.
func (c *servingCore) readPackedLocked(dst []byte) error {
	total := len(dst) * 8
	for pos := 0; pos < total; {
		m, err := c.nextMemberWithBitsLocked()
		if err != nil {
			return err
		}
		take := m.curBits
		if rem := total - pos; take > rem {
			take = rem
		}
		writeBits(dst, pos, m.takeLocked(take), take)
		pos += take
	}
	return nil
}

// writeBits stores the low n bits of v (first stream bit most significant)
// into dst starting at bit offset pos, MSB-first.
//
//drange:noalloc
func writeBits(dst []byte, pos int, v uint64, n int) {
	for n > 0 {
		free := 8 - pos&7
		take := n
		if take > free {
			take = free
		}
		chunk := byte(v>>uint(n-take)) & (1<<uint(take) - 1)
		shift := uint(free - take)
		dst[pos>>3] = dst[pos>>3]&^(byte(1<<uint(take)-1)<<shift) | chunk<<shift
		pos += take
		n -= take
	}
}

// readBitsLocked returns n bits, one bit per byte, assembled across the
// healthy members. Callers hold mu.
func (c *servingCore) readBitsLocked(n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for len(out) < n {
		m, err := c.nextMemberWithBitsLocked()
		if err != nil {
			return nil, err
		}
		take := m.curBits
		if rem := n - len(out); take > rem {
			take = rem
		}
		v := m.takeLocked(take)
		for j := take - 1; j >= 0; j-- {
			out = append(out, byte(v>>uint(j))&1)
		}
	}
	return out, nil
}

// evictionSummaryLocked summarises why the core ran out of devices.
func (c *servingCore) evictionSummaryLocked() string {
	s := ""
	for _, m := range c.members {
		if m.reason == "" {
			continue
		}
		if s != "" {
			s += "; "
		}
		s += fmt.Sprintf("device %d: %s", m.idx, m.reason)
	}
	if s == "" {
		return "no devices opened"
	}
	return s
}

// updateRemainderLocked records whether any member still buffers sub-word
// bits, which forces subsequent Reads onto the locked path until drained.
// Callers hold mu.
func (c *servingCore) updateRemainderLocked() {
	for _, m := range c.members {
		if m.curBits > 0 {
			c.remainder.Store(true)
			return
		}
	}
	c.remainder.Store(false)
}

// runStartupTests runs the startup self-test over every member's first
// StartupBits bits before the core serves a byte. Under the HealthActionEvict
// action a failing member is evicted at open (it never serves); unlike
// runtime eviction, every member failing fails the open — a fleet where every
// device flunks its self-test must not come up at all. Any other action fails
// the open on the first failing member.
//
//drange:holds mu construction: runs from open before the core is published
func (c *servingCore) runStartupTests() error {
	if !c.testsEnabled || c.testsPolicy.StartupBits <= 0 {
		return nil
	}
	var firstErr error
	failed := 0
	for _, m := range c.members {
		sample, err := m.eng.ReadBits(c.testsPolicy.StartupBits)
		if err != nil {
			return c.memberErr(m.idx, " startup sample", err)
		}
		serr := runStartup(sample, c.testsPolicy, m.idx)
		if serr == nil {
			continue
		}
		failed++
		if firstErr == nil {
			firstErr = serr
		}
		if c.testsPolicy.OnFailure != HealthActionEvict {
			return serr
		}
		// Startup failures are terminal even under WithRecharacterization:
		// a device that flunks its self-test straight after characterization
		// has nothing fresher to re-characterize from. The eviction keeps
		// the last serving member only when every other one has failed
		// already; the open then fails and releases it.
		m.startupOK = false
		c.evictLocked(m, fmt.Sprintf("startup health test failed: %v", serr))
	}
	if failed == len(c.members) {
		return fmt.Errorf("drange: every pool device failed its startup health test: %w", firstErr)
	}
	return nil
}

// instantiateDRBGs seeds one DRBG per healthy member from the member's own
// engine through the member's own monitor. First reseed points are staggered
// across [interval, 2·interval): member k of n gets interval + k·⌈interval/n⌉
// extra first-seed budget, so the members never fall due in the same read and
// the staged reseeds of drbgReadLocked can always run on a member that is not
// serving (a 1-member core degenerates to the plain interval). A member whose
// seed harvest trips the health tests follows the open-time semantics of
// runStartupTests: the evict policy drops it (reads reroute), any other
// policy fails the open.
//
//drange:holds mu construction: runs from open before the core is published
func (c *servingCore) instantiateDRBGs() error {
	n := int64(c.healthyLocked())
	if n == 0 {
		return fmt.Errorf("drange: pool has no healthy devices left (%s)", c.evictionSummaryLocked())
	}
	interval := c.drbgPolicy.ReseedInterval
	step := (interval + n - 1) / n
	k := int64(0)
	seeded := 0
	for _, m := range c.members {
		if !m.serving() {
			continue
		}
		s := newDRBGState(c.drbgPolicy, interval+k*step)
		k++
		if m.monitor != nil {
			m.monitor.SetCreditSink(s.ledger)
		}
		if err := c.harvestSeedLocked(m, s.seedBuf); err != nil {
			if errors.Is(err, errDRBGMemberEvicted) {
				continue
			}
			return err
		}
		if err := s.instantiate(); err != nil {
			return err
		}
		m.drbg = s
		seeded++
	}
	if seeded == 0 {
		return fmt.Errorf("drange: no pool device produced a clean DRBG seed (%s)", c.evictionSummaryLocked())
	}
	return nil
}

// harvestSeedLocked fills seed with packed bytes from m's engine, streaming
// them through m's monitor with the same trip policies and load accounting
// as nextMemberWithBitsLocked. It returns
// errDRBGMemberEvicted when the harvest cost m its pool membership (engine
// failure or evict policy), so callers re-pick instead of failing the read.
// Callers hold mu.
func (c *servingCore) harvestSeedLocked(m *servingMember, seed []byte) error {
	blocked := 0
	for {
		if err := m.eng.ReadPacked(seed); err != nil {
			if c.healthyLocked() <= 1 {
				return c.memberErr(m.idx, " (last healthy device)", err)
			}
			c.evictLocked(m, fmt.Sprintf("engine failure: %v", err))
			return errDRBGMemberEvicted
		}
		m.fetched.Add(int64(len(seed)) * 8)
		if m.monitor == nil {
			return nil
		}
		clean := m.monitor.Counters().CleanWindows
		v := m.monitor.IngestPacked(seed, len(seed)*8)
		if v == nil {
			m.clearComplaintLocked(clean)
			return nil
		}
		switch c.tripAction(v) {
		case HealthActionError:
			return &HealthError{Test: string(v.Test), Device: m.idx, Detail: v.Detail}
		case HealthActionBlock:
			m.monitor.Reset()
			m.blockedWindows++
			blocked++
			if blocked >= c.testsPolicy.MaxBlockedWindows {
				return &HealthError{Test: "blocked", Device: m.idx, Detail: fmt.Sprintf(
					"no clean seed after discarding %d (last violation: %s: %s)", blocked, v.Test, v.Detail)}
			}
		default: // HealthActionEvict
			c.retireLocked(m, fmt.Sprintf("health test %s tripped: %s", v.Test, v.Detail))
			if !m.serving() {
				return errDRBGMemberEvicted
			}
			// The last healthy member is retained (degraded output beats no
			// output): use the seed with the violation recorded in Reason and
			// the trip counters.
			m.monitor.Reset()
			return nil
		}
	}
}

// ReadBits returns n random bits, one bit per returned byte (0 or 1), after
// any configured post-processing chain. It is a thin unpacking adapter over
// the packed serving path and is safe for concurrent use. With WithDRBG
// attached it serves the DRBG tier; either way the serving tier's counters
// advance only when the read succeeds.
func (c *servingCore) ReadBits(n int) ([]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("drange: bit count must be positive, got %d", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, c.errClosed()
	}
	c.readEpoch++
	if c.drbgOn {
		packed := make([]byte, (n+7)/8)
		if err := c.drbgReadLocked(packed); err != nil {
			return nil, err
		}
		out := make([]byte, n)
		unpackBits(out, packed)
		c.delivered.Add(int64(n))
		c.tierDRBGReads.Add(1)
		c.tierDRBGBytes.Add(int64(len(packed)))
		return out, nil
	}
	var bits []byte
	var err error
	if c.post != nil {
		bits, err = c.post.readBits(n, c.readPackedLocked)
	} else {
		bits, err = c.readBitsLocked(n)
	}
	c.updateRemainderLocked()
	if err != nil {
		return nil, err
	}
	c.delivered.Add(int64(len(bits)))
	c.tierRawReads.Add(1)
	c.tierRawBytes.Add(int64((len(bits) + 7) / 8))
	return bits, nil
}

// Read fills p with random bytes, implementing io.Reader. It never returns a
// short read except on error.
//
// Without WithDRBG this is the raw packed fast path (see ReadRaw). With
// WithDRBG attached, Read serves the DRBG tier: each request is expanded by
// the least-loaded ready member's DRBG, and reseeds are staged across the
// other members so the serving member is (almost) never the one harvesting a
// seed. (A 1-member core reseeds inline on its own interval.)
func (c *servingCore) Read(p []byte) (int, error) {
	if !c.drbgOn {
		return c.ReadRaw(p)
	}
	if len(p) == 0 {
		return 0, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return 0, c.errClosed()
	}
	c.readEpoch++
	if err := c.drbgReadLocked(p); err != nil {
		return 0, err
	}
	c.delivered.Add(int64(len(p)) * 8)
	c.tierDRBGReads.Add(1)
	c.tierDRBGBytes.Add(int64(len(p)))
	return len(p), nil
}

// drbgReadLocked serves one DRBG-tier read: each chunk (capped at the
// policy's per-request limit) is generated by the least-loaded ready member,
// and after every chunk at most one other due member is reseeded — staging
// reseed work onto members that are not serving, so reseeds never stall the
// read. Generated bits land in the members' pendingDRBG and fold into their
// delivered counters only when every chunk succeeded: a failed read returns
// (0, err), so nothing it generated may count as delivered. Callers hold mu.
//
//drange:noalloc
func (c *servingCore) drbgReadLocked(dst []byte) error {
	for off := 0; off < len(dst); {
		chunk := dst[off:]
		if len(chunk) > c.drbgPolicy.MaxRequestBytes {
			chunk = chunk[:c.drbgPolicy.MaxRequestBytes]
		}
		m, err := c.drbgServeMemberLocked()
		if err != nil {
			c.dropPendingDRBGLocked()
			return err
		}
		if err := m.drbg.d.Generate(chunk, nil); err != nil {
			c.dropPendingDRBGLocked()
			return err
		}
		m.pendingDRBG += int64(len(chunk)) * 8
		off += len(chunk)
		c.stageDRBGReseedLocked(m)
	}
	c.commitPendingDRBGLocked()
	return nil
}

// commitPendingDRBGLocked folds every member's in-flight DRBG generation into
// its delivered counter after a whole DRBG-tier read succeeded. Callers hold
// mu.
//
//drange:noalloc
func (c *servingCore) commitPendingDRBGLocked() {
	for _, m := range c.members {
		if m.pendingDRBG != 0 {
			m.delivered.Add(m.pendingDRBG)
			m.pendingDRBG = 0
		}
	}
}

// dropPendingDRBGLocked discards every member's in-flight DRBG generation
// after a DRBG-tier read failed mid-way: the caller got (0, err), so the
// generated chunks were never delivered. Callers hold mu.
//
//drange:noalloc
func (c *servingCore) dropPendingDRBGLocked() {
	for _, m := range c.members {
		m.pendingDRBG = 0
	}
}

// drbgServeMemberLocked picks the member to generate the next DRBG request:
// the least-loaded healthy member whose DRBG is ready (within its request
// budget). When no member is ready — every DRBG fell due at once, or
// prediction resistance forces a reseed before every request — the
// least-loaded due member is reseeded inline and serves. A member evicted
// during that reseed is skipped and the pick re-runs. Callers hold mu.
func (c *servingCore) drbgServeMemberLocked() (*servingMember, error) {
	for {
		var ready, due *servingMember
		var readyF, dueF int64
		for _, m := range c.members {
			if !m.serving() || m.drbg == nil {
				continue
			}
			f := m.fetched.Load()
			if !c.drbgPolicy.PredictionResistance && !m.drbg.d.NeedsReseed() {
				if ready == nil || f < readyF {
					ready, readyF = m, f
				}
			} else if due == nil || f < dueF {
				due, dueF = m, f
			}
		}
		if ready != nil {
			return ready, nil
		}
		if due == nil {
			return nil, fmt.Errorf("drange: pool has no healthy devices left (%s)", c.evictionSummaryLocked())
		}
		if err := c.reseedMemberLocked(due); err != nil {
			if errors.Is(err, errDRBGMemberEvicted) {
				continue
			}
			return nil, err
		}
		return due, nil
	}
}

// reseedMemberLocked harvests a fresh health-screened seed from m's own
// engine and folds it into m's DRBG, debiting the credit ledger. Callers
// hold mu.
//
//drange:noalloc
func (c *servingCore) reseedMemberLocked(m *servingMember) error {
	if err := c.harvestSeedLocked(m, m.drbg.seedBuf); err != nil {
		return err
	}
	return m.drbg.reseedFromBuf()
}

// stageDRBGReseedLocked opportunistically reseeds at most one due member
// other than the one that just served, spreading seed harvests across reads
// so members are reseeded while idle rather than when picked. Best-effort: a
// failure neither fails the read nor loses the member — an engine failure or
// evict-policy trip is already recorded by harvestSeedLocked, and any other
// error surfaces when the member is next picked to serve. Callers hold mu.
func (c *servingCore) stageDRBGReseedLocked(served *servingMember) {
	if c.drbgPolicy.PredictionResistance {
		// Every request reseeds its serving member anyway; staging extra
		// harvests would only burn raw throughput.
		return
	}
	var due *servingMember
	var dueF int64
	for _, m := range c.members {
		if m == served || !m.serving() || m.drbg == nil || !m.drbg.d.NeedsReseed() {
			continue
		}
		if f := m.fetched.Load(); due == nil || f < dueF {
			due, dueF = m, f
		}
	}
	if due == nil {
		return
	}
	_ = c.reseedMemberLocked(due)
}

// ReadRaw fills p with raw harvested bytes — the physical tier. Health
// tests and any post-processing chain still apply; only the WithDRBG
// expansion is bypassed. Without WithDRBG, Read is this same path.
//
// This is the packed fast path: the engines hand the core packed 64-bit
// words that land in the caller's buffer without any bit-per-byte expansion.
// With no post-processing chain and no online health tests attached, ReadRaw
// additionally runs lock-free — concurrent readers schedule themselves onto
// the least-loaded members through atomic load counters and only touch the
// core mutex to evict a member whose engine failed, so throughput scales
// with readers instead of serializing behind the lock. This is also the
// single tier-accounting site of the raw tier: both exits count the read if
// and only if it succeeded.
//
//drange:seedtaint-exempt documented raw tier: delivers unconditioned entropy by contract
func (c *servingCore) ReadRaw(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	// Buffered sub-word bits from an earlier ReadBits must be served first
	// and in order, so they force the locked path for this read.
	if c.post == nil && !c.testsEnabled && !c.remainder.Load() {
		n, err := c.readFast(p)
		if err == nil {
			c.tierRawReads.Add(1)
			c.tierRawBytes.Add(int64(len(p)))
		}
		return n, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return 0, c.errClosed()
	}
	c.readEpoch++
	defer c.updateRemainderLocked()
	for off := 0; off < len(p); {
		chunk := p[off:]
		if len(chunk) > maxReadChunkBytes {
			chunk = chunk[:maxReadChunkBytes]
		}
		var err error
		if c.post != nil {
			err = c.post.readPacked(chunk, c.readPackedLocked)
		} else {
			err = c.readPackedLocked(chunk)
		}
		if err != nil {
			// A failed Read returns (0, err); chunks already written must
			// not count as served.
			return 0, err
		}
		off += len(chunk)
	}
	c.delivered.Add(int64(len(p)) * 8)
	c.tierRawReads.Add(1)
	c.tierRawBytes.Add(int64(len(p)))
	return len(p), nil
}

// pickMember is the lock-free counterpart of nextMemberLocked: least loaded
// healthy member by atomic counters, ties to the lowest index.
//
//drange:noalloc
func (c *servingCore) pickMember() *servingMember {
	var best *servingMember
	var bestFetched int64
	for _, m := range c.members {
		if !m.serving() {
			continue
		}
		if f := m.fetched.Load(); best == nil || f < bestFetched {
			best, bestFetched = m, f
		}
	}
	return best
}

// readFast is the concurrent Read path: packed 64-bit fetches from the
// least-loaded member's engine straight into the caller's buffer, with the
// core mutex taken only for evictions.
//
//drange:noalloc
func (c *servingCore) readFast(dst []byte) (int, error) {
	for i := 0; i < len(dst); {
		if c.closed.Load() {
			return 0, c.errClosed()
		}
		m := c.pickMember()
		if m == nil {
			c.mu.Lock()
			err := fmt.Errorf("drange: pool has no healthy devices left (%s)", c.evictionSummaryLocked())
			c.mu.Unlock()
			return 0, err
		}
		n := len(dst) - i
		if n > 8 {
			n = 8
		}
		chunk := dst[i : i+n]
		// Claim the load before the engine read so concurrent readers spread
		// across members instead of piling onto one.
		m.fetched.Add(int64(n) * 8)
		eng := m.fastEng.Load()
		if eng == nil {
			// The member was evicted between the pick and the engine load;
			// re-pick.
			m.fetched.Add(-int64(n) * 8)
			continue
		}
		if err := eng.ReadPacked(chunk); err != nil {
			m.fetched.Add(-int64(n) * 8)
			c.mu.Lock()
			if c.closed.Load() {
				c.mu.Unlock()
				return 0, c.errClosed()
			}
			if !m.serving() {
				// Another reader evicted this member while we were blocked
				// in its engine; the survivors keep serving — just re-pick.
				c.mu.Unlock()
				continue
			}
			if c.healthyLocked() <= 1 {
				c.mu.Unlock()
				return 0, c.memberErr(m.idx, " (last healthy device)", err)
			}
			c.evictLocked(m, fmt.Sprintf("engine failure: %v", err))
			c.mu.Unlock()
			continue
		}
		m.delivered.Add(int64(n) * 8)
		i += n
	}
	c.delivered.Add(int64(len(dst)) * 8)
	return len(dst), nil
}

// Uint64 returns a 64-bit random value.
func (c *servingCore) Uint64() (uint64, error) {
	var buf [8]byte
	if _, err := c.Read(buf[:]); err != nil {
		return 0, err
	}
	return core.BEUint64(buf), nil
}

// Close releases the core: it stops every member engine and releases every
// device. It is idempotent. A single-device core reports release errors; a pool — whose members may already be part-closed by evictions —
// returns nil, as it always has.
func (c *servingCore) Close() error {
	c.mu.Lock()
	if c.closed.Swap(true) {
		c.mu.Unlock()
		return nil
	}
	if c.cancel != nil {
		c.cancel()
	}
	c.mu.Unlock()
	// The recharacterizer may be mid-pass over a quarantined member's still
	// open device; wait for it before releasing devices. It checks the
	// cancelled context between profiling rounds, so this does not wait out
	// a full pass, and it only takes mu briefly — never while Close holds it.
	c.recharWG.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.closeMembers()
	if c.single {
		return err
	}
	return nil
}

// closeMembers releases every member except the terminally evicted (closed
// at eviction time) — quarantined and recharacterizing members still hold
// their device open for the recharacterizer. Members whose engine never
// started — an Open/OpenPool constructor failure — still release their
// device, so a replay recorder's log is flushed even when a later member
// fails to open.
func (c *servingCore) closeMembers() error {
	var err error
	for _, m := range c.members {
		if m.lifecycle() == memberEvicted {
			continue
		}
		if m.eng != nil {
			if cerr := m.eng.Close(); err == nil {
				err = cerr
			}
		}
		if m.ownsDev && m.pub != nil {
			if cerr := closeDevice(m.pub); err == nil {
				err = cerr
			}
		}
	}
	return err
}
