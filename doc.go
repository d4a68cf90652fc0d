// Package repro is the root of the D-RaNGe reproduction (Kim et al.,
// HPCA 2019): a DRAM-based true random number generator that harvests
// entropy from activation failures induced by reading DRAM with a reduced
// tRCD.
//
// # Module layout
//
// The public API lives in the drange package and mirrors the paper's
// two-phase lifecycle: drange.Characterize runs the one-time-per-device
// RNG-cell identification (Sections 6.1–6.2) and returns a serializable
// drange.Profile; drange.Open starts a drange.Source against a device
// matching the profile without re-running identification. Every Source
// harvests through the sharded engine, WithShards sets its shard count (one
// by default), and WithPostprocess attaches the Section 2.2 corrector chain.
// No internal type appears in an exported drange signature. The simulated
// substrates live under internal/:
//
//   - internal/device — the device contract the whole pipeline is written
//     against; every layer below accepts this interface, not a concrete
//     simulator.
//   - internal/dram — the reference device implementation: per-cell process
//     variation, activation-failure injection, data-pattern and temperature
//     coupling, pluggable noise sources (including per-bank deterministic
//     streams).
//   - internal/memctrl — the cycle-accurate memory controller: programmable
//     tRCD, per-bank state machines, tRRD/tFAW, bus occupancy, refresh.
//   - internal/core — D-RaNGe itself: RNG-cell identification (Section
//     6.1), bank-word selection (Section 6.2), the single-shard TRNG (the
//     one Algorithm 2 loop, which serves every Source and which the
//     Figure 8, latency and energy estimators time) and the sharded Engine
//     that composes one TRNG per simulated channel/rank.
//   - internal/health — the SP 800-90B style online health tests
//     (Repetition Count Test, Adaptive Proportion Test, windowed bias
//     monitor, startup self-test) that guard every Source's hot path.
//   - internal/sim, internal/power, internal/nist, internal/baselines —
//     the evaluation: workload replay for the idle-bandwidth study,
//     DRAMPower-style energy, the NIST SP 800-22 suite, and the prior-work
//     TRNG baselines of Table 2.
//
// # Device backends
//
// drange.Device is the public mirror of the device contract: geometry and
// identity, reduced-tRCD activation plus word reads (the entropy mechanism),
// writes/precharge/refresh, the profiling row shortcuts, temperature, and
// operation counters. Devices are opened through a registry
// (drange.RegisterBackend, drange.WithBackend, drange.OpenBackend) with
// three built-ins: "sim" (the simulator), "replay" (records every device
// operation of a run to a log and replays it byte-identically — the CI
// determinism anchor, independent of noise-source seeding), and "faulty"
// (wraps another backend injecting stuck columns and temperature drift for
// robustness tests). drange.WithDevice injects a caller-built Device
// directly.
//
// # Multi-device pools
//
// drange.OpenPool multiplexes one device per profile behind a single Source:
// every device runs its own sharded engine, and a least-loaded scheduler
// interleaves 64-bit words across the healthy members. With the online
// health tests attached (below), each member runs its own monitor, and a
// member that trips it — a stuck or biased bitstream, or temperature drift
// per the paper's Section 5.3 — is evicted without ever failing readers
// while a healthy member remains. Stats gains a per-device breakdown
// (Stats.Devices) on top of the per-shard accounting.
//
// # Serving core
//
// Both Source facades sit on one serving core: a Generator is a one-member
// pool. One constructor builds the members of both (Open is OpenPool over
// one profile, after rejecting the pool-only options), and one scheduler,
// one lock-free fast path, one locked path, one DRBG tier, one
// tier-accounting site and one Stats snapshot implement Read, ReadBits,
// ReadRaw, Uint64 and Stats for Generator and Pool alike; a Generator only
// drops the per-device breakdown from Stats. The two facades therefore
// cannot drift apart — a single-member pool and a Generator over the same
// profile produce byte-for-byte identical streams and the same Stats
// (harvest-ahead counters aside) under deterministic noise
// (regression-tested). The shared accounting is success-only: a read that
// fails with (0, err) never advances the tier counters or delivered totals,
// and a multi-chunk DRBG read commits its per-member deliveries only when
// the whole request succeeds, so per-device deliveries always sum to the
// pool aggregate.
//
// # Online health tests
//
// The paper validates output quality offline with the NIST battery and
// notes RNG cells drift with temperature and aging; drange.WithHealthTests
// adds the runtime counterpart, and internal/health's Monitor is the one
// place device-health verdicts come from. Every harvested bit streams
// through the SP 800-90B continuous health tests — the Repetition Count Test
// and Adaptive Proportion Test over a configurable symbol width, plus a
// windowed bias monitor — before it reaches a caller (and before any
// postprocess chain); each bias window also checks the device's temperature
// against the baseline taken at open, tripping beyond 10 °C of drift; and a
// startup self-test (a fresh RCT/APT/bias pass plus a mini internal/nist
// battery over the first bits) must pass before Open or OpenPool serves a
// byte. Every trip follows one policy: HealthActionError fails reads with a
// typed *drange.HealthError, HealthActionBlock stalls until a clean batch
// (bounded; a bias or temperature trip, which judges a window already
// served, fails the read or retires the member instead), and pools default
// to HealthActionEvict, feeding the per-device eviction (or quarantine,
// under WithRecharacterization) so readers never fail while a healthy
// member remains. WithDRBG and WithRecharacterization
// imply the tests; without them no device health is watched. Stats.Health
// (and the per-member PoolDeviceStats.Health) carry the accounting.
// cmd/drange-soak is the soak/conformance harness: it drives
// internal/workload request profiles against sim, faulty and pooled sources
// and emits a JSON report of throughput, trip counts and a NIST summary — CI
// asserts a healthy soak trips nothing, a stuck-column device trips RCT/APT
// under every policy, and a heating pool member is evicted by a temp trip.
//
// # Profiles: characterize once, open many
//
// Characterization is expensive (it deep-profiles every candidate cell) and
// per-device (RNG-cell locations are process variation), but it is also
// stable over time — the paper observes no significant change over 15 days.
// drange.Profile therefore captures its entire result: device identity,
// geometry, identified cells, per-bank word selections, and the
// identification parameters, as versioned JSON with an integrity checksum.
// drange.Open validates the profile against the device it is asked to open
// (erroring loudly on identity or geometry mismatch) and starts generating
// in milliseconds. cmd/drange-char -profile-out and cmd/drange-gen
// -profile-in demonstrate the workflow end to end.
//
// # TRNG versus Engine
//
// core.TRNG is the single-shard core: one memory controller sampling its
// selected banks, buffering harvested bits in a packed 64-bit word queue.
// It issues each half-iteration of Algorithm 2 in bank phases — every ACT,
// then every reduced-tRCD read, then every restoring write — so the banks'
// activations overlap on the one channel. The estimators time this same
// loop, so one TRNG serves at the rate Figure 8 reports for its banks.
// core.Engine partitions the bank selections across several controllers —
// one simulated channel/rank per shard — and runs one TRNG per shard on its
// own harvesting goroutine into bounded per-shard rings of packed words,
// drained round-robin by a thread-safe io.Reader facade. Every drange Source
// is engine-backed; a 1-shard engine serves exactly the byte stream of one
// TRNG over the same selections. The per-shard throughput/latency accounting
// (Source.Stats) reports each shard's rate in simulated DRAM time.
//
// # The packed serving path
//
// Packed 64-bit words are the native representation of the whole serving
// path: Source.Read and Pool.Read fill the caller's buffer directly from
// the packed shard rings (no intermediate bit-per-byte slice, zero
// steady-state allocations), the post-processing correctors and the online
// health monitor both operate on the packed stream, and ReadBits remains a
// thin unpacking adapter for callers that want individual bits. A Source
// without monitor or post chain reads lock-free behind the engine's
// consumer lock; a Pool in the same configuration schedules concurrent
// readers onto its least-loaded members with atomic counters, so
// multi-reader throughput scales instead of serializing behind the pool
// mutex. Attaching WithHealthTests or WithPostprocess engages the locked
// path: windowed tests and corrector carries need one well-defined stream
// order. The repository benchmark in bench/ (`bash bench/run.sh`) measures
// the serving path end to end and per layer; bench/README.md documents its
// workloads and metrics.
//
// The benchmark harness in bench_test.go regenerates every table and figure
// of the paper's evaluation; see README.md for the module guide and
// bench/README.md for the measured performance of each layer.
package repro
