// Command drange-soak is the soak/conformance harness over the D-RaNGe
// runtime: it drives the synthetic memory-request profiles of
// internal/workload as random-number demand against simulated, faulty or
// pooled sources for a configurable wall-clock duration, with the online
// health-test subsystem attached, and emits a JSON report of throughput,
// health-test trip counts and a NIST summary per workload scenario.
//
// The harness exists to *prove* the health tests catch real failure modes: a
// healthy device must soak with zero trips, a stuck-column device must trip
// the RCT/APT on every read, a pool with a faulty member must evict it while
// reads keep succeeding, and a member heating past the temperature-drift
// bound must be evicted by a "temp" trip — and CI asserts exactly that over
// this tool's JSON output.
//
// Profiles are characterized on the pristine simulator; the backend under
// test is injected at Open, modelling a device that degraded *after*
// characterization (the paper's temperature/aging concern — Section 5.3).
//
// Examples:
//
//	drange-soak -duration 10s -deterministic                 # healthy soak
//	drange-soak -duration 10s -backend faulty -startup-bits -1
//	drange-soak -duration 10s -devices 4 -faulty-member 2 -policy evict
//	drange-soak -duration 10s -devices 3 -faulty-member 1 -tier drbg  # DRBG tier over a degraded pool
//	drange-soak -duration 4s -devices 3 -faulty-member 1 -startup-bits -1 -faulty-opt stuck=0 -faulty-opt drift=50
//	drange-soak -duration 30s -workloads stream-like,gcc-like -out report.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/drange"
	"repro/internal/nist"
	"repro/internal/workload"
)

// backendOpts collects repeated -backend-opt key=value flags.
type backendOpts map[string]string

func (b backendOpts) String() string {
	parts := make([]string, 0, len(b))
	for k, v := range b {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (b backendOpts) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	b[k] = v
	return nil
}

// tripReport is the health-test trip accounting of one scenario (or the run
// totals).
type tripReport struct {
	RCT     int64 `json:"rct"`
	APT     int64 `json:"apt"`
	Bias    int64 `json:"bias"`
	Temp    int64 `json:"temp"`
	Blocked int64 `json:"blocked_windows"`
	Total   int64 `json:"total"`
}

func (t *tripReport) add(h *drange.HealthStats) {
	if h == nil {
		return
	}
	t.RCT += h.RCTTrips
	t.APT += h.APTTrips
	t.Bias += h.BiasTrips
	t.Temp += h.TempTrips
	t.Blocked += h.BlockedWindows
	t.Total += h.TotalTrips
}

// nistSummary condenses a NIST suite run for the report.
type nistSummary struct {
	Bits       int    `json:"bits"`
	Passed     int    `json:"passed"`
	Applicable int    `json:"applicable"`
	AllPass    bool   `json:"all_pass"`
	Skipped    string `json:"skipped,omitempty"`
}

// scenarioReport is the outcome of soaking one workload profile.
type scenarioReport struct {
	Workload string `json:"workload"`
	// Requests/ReadsOK/ReadErrors/HealthErrors count the request loop:
	// every request reads -bytes-per-request bytes; HealthErrors is the
	// subset of failures that were typed *drange.HealthError.
	Requests     int64 `json:"requests"`
	ReadsOK      int64 `json:"reads_ok"`
	ReadErrors   int64 `json:"read_errors"`
	HealthErrors int64 `json:"health_errors"`
	Bytes        int64 `json:"bytes"`
	// StartupFailed reports that the source never opened because the
	// startup self-test rejected the device.
	StartupFailed bool   `json:"startup_failed,omitempty"`
	OpenError     string `json:"open_error,omitempty"`
	// WallMS is the scenario's wall-clock budget actually spent;
	// WallMbps the delivered wall-clock rate; SimMbps the simulated
	// aggregate harvest rate from Stats.
	WallMS   float64 `json:"wall_ms"`
	WallMbps float64 `json:"wall_mbps"`
	SimMbps  float64 `json:"sim_mbps"`
	// LatencyP50MS/LatencyP99MS are wall-clock per-request read latency
	// percentiles over the scenario's successful requests, in milliseconds.
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP99MS float64 `json:"latency_p99_ms"`
	// DeliveredBits and the tier counters snapshot the source's final
	// Stats(): serving-core accounting is success-only, so after a clean
	// scenario (tier_raw_bytes + tier_drbg_bytes) * 8 == delivered_bits —
	// CI asserts exactly that on the healthy soak.
	DeliveredBits int64 `json:"delivered_bits"`
	TierRawReads  int64 `json:"tier_raw_reads"`
	TierRawBytes  int64 `json:"tier_raw_bytes"`
	TierDRBGReads int64 `json:"tier_drbg_reads"`
	TierDRBGBytes int64 `json:"tier_drbg_bytes"`
	// DevicesEvicted counts pool members terminally evicted during the
	// scenario; Readmissions and Recharacterizations sum the members'
	// self-healing lifecycle counters, and Devices carries the per-device
	// lifecycle breakdown (state, reason, counters) so conformance scenarios
	// can assert on *why* a member left serving.
	DevicesEvicted      int                 `json:"devices_evicted"`
	Readmissions        int64               `json:"readmissions"`
	Recharacterizations int64               `json:"recharacterizations"`
	Devices             []deviceReport      `json:"devices,omitempty"`
	Trips               tripReport          `json:"trips"`
	Health              *drange.HealthStats `json:"health,omitempty"`
	// DRBG carries the DRBG-tier counters (reseeds, generates, entropy
	// credit) when the scenario serves through -tier drbg.
	DRBG *drange.DRBGStats `json:"drbg,omitempty"`
	NIST *nistSummary      `json:"nist,omitempty"`
}

// deviceReport is one pool member's lifecycle state at scenario end.
type deviceReport struct {
	Device  int    `json:"device"`
	Serial  uint64 `json:"serial"`
	Backend string `json:"backend"`
	// State is the lifecycle state ("serving", "quarantined",
	// "recharacterizing", "readmitting", "evicted"); Reason records why the
	// member last left serving (empty while healthy).
	State   string `json:"state"`
	Reason  string `json:"reason,omitempty"`
	Evicted bool   `json:"evicted"`
	// The self-healing counters mirror drange.PoolDeviceStats.
	Readmissions        int64   `json:"readmissions"`
	Recharacterizations int64   `json:"recharacterizations"`
	RecharFailures      int64   `json:"rechar_failures"`
	LastRecharMS        float64 `json:"last_rechar_ms,omitempty"`
	ProfileDeltas       int     `json:"profile_deltas,omitempty"`
}

// totalsReport aggregates every scenario.
type totalsReport struct {
	Requests        int64      `json:"requests"`
	ReadsOK         int64      `json:"reads_ok"`
	ReadErrors      int64      `json:"read_errors"`
	HealthErrors    int64      `json:"health_errors"`
	Bytes           int64      `json:"bytes"`
	StartupFailures int64      `json:"startup_failures"`
	DevicesEvicted  int        `json:"devices_evicted"`
	Readmissions    int64      `json:"readmissions"`
	Trips           tripReport `json:"trips"`
}

// report is the tool's JSON output.
type report struct {
	Config    map[string]any   `json:"config"`
	Scenarios []scenarioReport `json:"scenarios"`
	Totals    totalsReport     `json:"totals"`
}

func main() {
	bopts := backendOpts{}
	fopts := backendOpts{}
	var (
		duration      = flag.Duration("duration", 30*time.Second, "total soak wall-clock budget, split evenly across the selected workloads")
		workloads     = flag.String("workloads", "all", "comma-separated workload profile names (see internal/workload), or \"all\"")
		manufacturer  = flag.String("manufacturer", "A", "DRAM manufacturer profile: A, B or C")
		serial        = flag.Uint64("serial", 1, "first device serial (pools use serial..serial+N-1)")
		deterministic = flag.Bool("deterministic", false, "seeded noise source (reproducible soak, NOT for keys)")
		devices       = flag.Int("devices", 1, "number of pool devices (1 opens a single Source unless -policy evict)")
		parallel      = flag.Int("parallel", 1, "harvesting shards per device")
		backend       = flag.String("backend", "", "device backend for every device: sim (default), faulty, or a registered name")
		tier          = flag.String("tier", "raw", "serving tier: raw (physical harvested bits) or drbg (ChaCha20 DRBG reseeded from the health-screened harvest; implies the online health tests)")
		faultyMember  = flag.Int("faulty-member", -1, "pool member index opened through the faulty backend (default scenario: every column stuck at 1; override with -faulty-opt)")
		rechar        = flag.Bool("recharacterize", false, "self-healing pools: quarantine evicted members, re-characterize them in the background and readmit them (WithRecharacterization; implies the online health tests)")
		settle        = flag.Duration("settle", 30*time.Second, "with -recharacterize, how long after the soak budget to wait for quarantined members to finish re-characterizing before the final snapshot")
		policy        = flag.String("policy", "", "health action on a trip: error, block, evict, or off (default: error; evict for pools)")
		symbolBits    = flag.Int("symbol-bits", 1, "RCT/APT symbol width in bits")
		startupBits   = flag.Int("startup-bits", 4096, "startup self-test sample size in bits (negative disables)")
		rows          = flag.Int("rows", 64, "rows per bank to characterize (the soak needs working devices, not maximal throughput)")
		words         = flag.Int("words", 8, "DRAM words per row to characterize")
		banks         = flag.Int("banks", 4, "banks to characterize (0 = all)")
		perRequest    = flag.Int("bytes-per-request", 32, "random bytes read per workload request")
		nistBits      = flag.Int("nist-bits", 20000, "bits read after each soak for the NIST summary (0 disables)")
		out           = flag.String("out", "", "write the JSON report to this file instead of stdout")
	)
	flag.Var(bopts, "backend-opt", "backend option key=value (repeatable)")
	flag.Var(fopts, "faulty-opt", "faulty-member backend option key=value (repeatable; default stuck=1,stuck-value=1)")
	flag.Parse()

	if *duration <= 0 {
		fatal(fmt.Errorf("-duration must be positive"))
	}
	if *devices < 1 {
		fatal(fmt.Errorf("-devices must be at least 1"))
	}
	if *perRequest < 1 {
		fatal(fmt.Errorf("-bytes-per-request must be at least 1"))
	}
	if *faultyMember >= *devices {
		fatal(fmt.Errorf("-faulty-member %d outside the %d devices", *faultyMember, *devices))
	}
	if *tier != "raw" && *tier != "drbg" {
		fatal(fmt.Errorf("-tier must be raw or drbg"))
	}
	if *backend == "faulty" && len(bopts) == 0 {
		// The faulty backend's default is every column stuck: the worst case.
		bopts["stuck"] = "1"
	}
	if len(fopts) > 0 && *faultyMember < 0 {
		fatal(fmt.Errorf("-faulty-opt needs -faulty-member"))
	}
	if len(fopts) == 0 {
		fopts = backendOpts{"stuck": "1", "stuck-value": "1"}
	}

	profiles := pickWorkloads(*workloads)
	htp, healthOn := healthPolicy(*policy, *symbolBits, *startupBits)
	if *tier == "drbg" && !healthOn {
		fatal(fmt.Errorf("-tier drbg requires the health tests (the DRBG expands screened entropy); drop -policy off"))
	}
	if *rechar && !healthOn {
		fatal(fmt.Errorf("-recharacterize requires the health tests (only a health-test trip quarantines a member); drop -policy off"))
	}
	// A faulty member or an explicit evict policy forces the pool path even
	// for one device; resolve the effective trip policy from the same facts
	// so the report's config block matches what actually ran.
	isPool := *devices > 1 || *faultyMember >= 0 || htp.OnFailure == drange.HealthActionEvict
	effectivePolicy := "off"
	if healthOn {
		effectivePolicy = htp.OnFailure.String()
		if htp.OnFailure == drange.HealthActionDefault {
			if isPool {
				effectivePolicy = drange.HealthActionEvict.String()
			} else {
				effectivePolicy = drange.HealthActionError.String()
			}
		}
	}

	ctx := context.Background()
	deviceProfiles := characterizeAll(ctx, *devices, *manufacturer, *serial, *deterministic, *rows, *words, *banks)

	rep := report{Config: map[string]any{
		"duration":          duration.String(),
		"devices":           *devices,
		"parallel":          *parallel,
		"backend":           backendName(*backend),
		"backend_opts":      bopts.String(),
		"faulty_member":     *faultyMember,
		"faulty_opts":       fopts.String(),
		"recharacterize":    *rechar,
		"policy":            effectivePolicy,
		"symbol_bits":       *symbolBits,
		"startup_bits":      *startupBits,
		"tier":              *tier,
		"bytes_per_request": *perRequest,
		"deterministic":     *deterministic,
		"workloads":         names(profiles),
	}}

	perScenario := *duration / time.Duration(len(profiles))
	for i, wp := range profiles {
		opts := []drange.Option{drange.WithShards(*parallel)}
		if *backend != "" {
			opts = append(opts, drange.WithBackend(*backend, bopts))
		}
		if *faultyMember >= 0 {
			opts = append(opts, drange.WithDeviceBackend(*faultyMember, "faulty", fopts))
		}
		if *rechar {
			opts = append(opts, drange.WithRecharacterization(drange.RecharacterizationPolicy{}))
		}
		var settleBudget time.Duration
		if *rechar {
			settleBudget = *settle
		}
		if healthOn {
			opts = append(opts, drange.WithHealthTests(htp))
		}
		if *tier == "drbg" {
			opts = append(opts, drange.WithDRBG(drange.DRBGPolicy{}))
		}
		sc := soakScenario(ctx, wp, scenarioConfig{
			profiles:   deviceProfiles,
			opts:       opts,
			pool:       isPool,
			budget:     perScenario,
			perRequest: *perRequest,
			nistBits:   *nistBits,
			seed:       *serial + uint64(i)*1000,
			settle:     settleBudget,
		})
		rep.Scenarios = append(rep.Scenarios, sc)

		rep.Totals.Requests += sc.Requests
		rep.Totals.ReadsOK += sc.ReadsOK
		rep.Totals.ReadErrors += sc.ReadErrors
		rep.Totals.HealthErrors += sc.HealthErrors
		rep.Totals.Bytes += sc.Bytes
		rep.Totals.DevicesEvicted += sc.DevicesEvicted
		rep.Totals.Readmissions += sc.Readmissions
		if sc.StartupFailed {
			rep.Totals.StartupFailures++
		}
		rep.Totals.Trips.add(sc.Health)
		fmt.Fprintf(os.Stderr, "drange-soak: %-16s %7d requests, %5.1f Mb/s wall, p50 %.2f ms, p99 %.2f ms, trips %d, health errors %d\n",
			wp.Name, sc.Requests, sc.WallMbps, sc.LatencyP50MS, sc.LatencyP99MS, sc.Trips.Total, sc.HealthErrors)
	}

	enc := json.NewEncoder(os.Stdout)
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		enc = json.NewEncoder(f)
	}
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
}

// scenarioConfig carries one scenario's fixed inputs.
type scenarioConfig struct {
	profiles   []*drange.Profile
	opts       []drange.Option
	pool       bool
	budget     time.Duration
	perRequest int
	nistBits   int
	seed       uint64
	// settle bounds a post-soak wait for the self-healing lifecycle to
	// quiesce: a member quarantined near the end of the budget is given this
	// long to finish re-characterizing before the final snapshot, so the
	// report records the lifecycle outcome, not a race with it.
	settle time.Duration
}

// settleLifecycle polls the source until no member is in a transitional
// lifecycle state (quarantined, recharacterizing, readmitting) or the budget
// runs out. It returns immediately for sources without lifecycle stats.
func settleLifecycle(src drange.Source, budget time.Duration) {
	deadline := time.Now().Add(budget)
	for {
		lc := src.Stats().Lifecycle
		if lc == nil || lc.Quarantined+lc.Recharacterizing+lc.Readmitting == 0 {
			return
		}
		if !time.Now().Before(deadline) {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// soakScenario opens a fresh source (so health counters are per-scenario),
// replays the workload's request trace as random-number demand until the
// wall-clock budget runs out, and snapshots the health and NIST state.
func soakScenario(ctx context.Context, wp workload.Profile, cfg scenarioConfig) scenarioReport {
	sc := scenarioReport{Workload: wp.Name}
	start := time.Now()

	var src drange.Source
	var err error
	if cfg.pool {
		src, err = drange.OpenPool(ctx, cfg.profiles, cfg.opts...)
	} else {
		src, err = drange.Open(ctx, cfg.profiles[0], cfg.opts...)
	}
	if err != nil {
		var herr *drange.HealthError
		if errors.As(err, &herr) && herr.Test == "startup" {
			// The startup self-test caught the device before a byte was
			// served — for a conformance run over a faulty backend this IS
			// the expected outcome; record it as such.
			sc.StartupFailed = true
		}
		sc.OpenError = err.Error()
		sc.WallMS = float64(time.Since(start).Microseconds()) / 1000.0
		return sc
	}
	defer src.Close()

	geom := cfg.profiles[0].Geometry
	trace, err := workload.Generate(wp, workload.Config{
		Banks:       geom.Banks,
		RowsPerBank: geom.RowsPerBank,
		WordsPerRow: geom.ColsPerRow / geom.WordBits,
		DurationNS:  100_000, // 100 µs of simulated arrivals per trace pass
		Seed:        cfg.seed,
	})
	if err != nil {
		sc.OpenError = err.Error()
		return sc
	}
	if len(trace) == 0 {
		trace = append(trace, workload.Request{})
	}

	deadline := start.Add(cfg.budget)
	buf := make([]byte, cfg.perRequest)
	var lats []time.Duration
	for time.Now().Before(deadline) {
		// Each trace request is one unit of random-number demand (the trace's
		// arrival intensity is what differentiates the workloads); the trace
		// replays until the wall-clock budget runs out.
		for range trace {
			if !time.Now().Before(deadline) {
				break
			}
			sc.Requests++
			t0 := time.Now()
			if _, err := src.Read(buf); err != nil {
				sc.ReadErrors++
				var herr *drange.HealthError
				if errors.As(err, &herr) {
					sc.HealthErrors++
					continue // the source stays usable; keep soaking
				}
				sc.OpenError = err.Error()
				sc.WallMS = float64(time.Since(start).Microseconds()) / 1000.0
				return sc
			}
			if len(lats) < maxLatencySamples {
				lats = append(lats, time.Since(t0))
			}
			sc.ReadsOK++
			sc.Bytes += int64(len(buf))
		}
	}
	wall := time.Since(start)
	sc.WallMS = float64(wall.Microseconds()) / 1000.0
	if cfg.settle > 0 {
		settleLifecycle(src, cfg.settle)
	}
	if wall > 0 {
		sc.WallMbps = float64(sc.Bytes) * 8 / wall.Seconds() / 1e6
	}
	sc.LatencyP50MS, sc.LatencyP99MS = latencyPercentiles(lats)

	st := src.Stats()
	sc.SimMbps = st.AggregateThroughputMbps
	sc.Health = st.Health
	sc.DRBG = st.DRBG
	sc.Trips.add(st.Health)

	if cfg.nistBits > 0 {
		sc.NIST = &nistSummary{Bits: cfg.nistBits}
		bits, err := src.ReadBits(cfg.nistBits)
		if err != nil {
			sc.NIST.Skipped = fmt.Sprintf("sample read failed: %v", err)
		} else if res, err := nist.RunAll(bits, nist.DefaultAlpha); err != nil {
			sc.NIST.Skipped = err.Error()
		} else {
			sc.NIST.Passed, sc.NIST.Applicable = res.Passed()
			sc.NIST.AllPass = res.AllPass()
		}
		// Refresh the trip accounting: the sample read runs the health tests
		// too, and on a faulty source it is often what trips them.
		sc.Health = src.Stats().Health
		sc.Trips = tripReport{}
		sc.Trips.add(sc.Health)
	}

	// The delivery/tier snapshot comes last so it covers the NIST sample read
	// too; every read the scenario issued is byte-aligned, so the tier byte
	// counters must account for exactly the delivered bits.
	final := src.Stats()
	sc.DeliveredBits = final.BitsDelivered
	sc.TierRawReads = final.TierRaw.Reads
	sc.TierRawBytes = final.TierRaw.Bytes
	sc.TierDRBGReads = final.TierDRBG.Reads
	sc.TierDRBGBytes = final.TierDRBG.Bytes
	for _, d := range final.Devices {
		if d.Evicted {
			sc.DevicesEvicted++
		}
		sc.Readmissions += d.Readmissions
		sc.Recharacterizations += d.Recharacterizations
		sc.Devices = append(sc.Devices, deviceReport{
			Device:              d.Device,
			Serial:              d.Serial,
			Backend:             d.Backend,
			State:               d.State,
			Reason:              d.Reason,
			Evicted:             d.Evicted,
			Readmissions:        d.Readmissions,
			Recharacterizations: d.Recharacterizations,
			RecharFailures:      d.RecharFailures,
			LastRecharMS:        d.LastRecharMS,
			ProfileDeltas:       d.ProfileDeltas,
		})
	}
	return sc
}

// maxLatencySamples bounds the per-scenario latency sample buffer; a soak
// long enough to overflow it computes its percentiles over the first million
// requests rather than growing without bound.
const maxLatencySamples = 1 << 20

// latencyPercentiles returns the p50/p99 of the successful-request read
// latencies in milliseconds (zeros when no request succeeded). lats is
// reordered in place.
func latencyPercentiles(lats []time.Duration) (p50, p99 float64) {
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pick := func(q float64) float64 {
		return float64(lats[int(q*float64(len(lats)-1))].Nanoseconds()) / 1e6
	}
	return pick(0.50), pick(0.99)
}

// characterizeAll runs the one-time characterization for every device serial
// on the pristine simulator.
func characterizeAll(ctx context.Context, n int, manufacturer string, serial uint64, deterministic bool, rows, words, banks int) []*drange.Profile {
	out := make([]*drange.Profile, 0, n)
	for i := 0; i < n; i++ {
		p, err := drange.Characterize(ctx,
			drange.WithManufacturer(manufacturer),
			drange.WithSerial(serial+uint64(i)),
			drange.WithDeterministic(deterministic),
			drange.WithProfilingRegion(rows, words, banks),
		)
		if err != nil {
			fatal(fmt.Errorf("characterizing device %d: %w", i, err))
		}
		fmt.Fprintf(os.Stderr, "drange-soak: device %d (serial %d): %d RNG cells across %d banks\n",
			i, serial+uint64(i), len(p.Cells), p.Banks())
		out = append(out, p)
	}
	return out
}

// pickWorkloads resolves the -workloads flag.
func pickWorkloads(spec string) []workload.Profile {
	if spec == "" || spec == "all" {
		return workload.Profiles()
	}
	var out []workload.Profile
	for _, name := range strings.Split(spec, ",") {
		p, err := workload.ProfileByName(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		fatal(fmt.Errorf("-workloads selected nothing"))
	}
	return out
}

// healthPolicy resolves the -policy/-symbol-bits/-startup-bits flags.
func healthPolicy(policy string, symbolBits, startupBits int) (drange.HealthTestPolicy, bool) {
	p := drange.HealthTestPolicy{SymbolBits: symbolBits, StartupBits: startupBits}
	switch policy {
	case "off":
		return p, false
	case "", "default":
		// surface default: error for single sources, evict for pools
	case "error":
		p.OnFailure = drange.HealthActionError
	case "block":
		p.OnFailure = drange.HealthActionBlock
	case "evict":
		p.OnFailure = drange.HealthActionEvict
	default:
		fatal(fmt.Errorf("unknown -policy %q (want error, block, evict or off)", policy))
	}
	return p, true
}

func backendName(b string) string {
	if b == "" {
		return "sim"
	}
	return b
}

func names(ps []workload.Profile) []string {
	out := make([]string, 0, len(ps))
	for _, p := range ps {
		out = append(out, p.Name)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "drange-soak: %v\n", err)
	os.Exit(1)
}
