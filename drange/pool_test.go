package drange

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/entropy"
	"repro/internal/health"
)

// poolProfiles characterizes n small deterministic devices (distinct
// serials), cached across the pool tests.
var (
	poolOnce sync.Once
	poolProf []*Profile
	poolErr  error
)

func poolProfiles(t *testing.T, n int) []*Profile {
	t.Helper()
	poolOnce.Do(func() {
		for serial := uint64(101); serial < 101+4; serial++ {
			p, err := Characterize(context.Background(),
				WithManufacturer("A"),
				WithSerial(serial),
				WithDeterministic(true),
				WithGeometry(quickGeometry()),
				WithProfilingRegion(48, 8, 4),
				WithSamples(300),
				WithTolerance(0.4),
				WithMaxBiasDelta(0.03),
				WithScreenIterations(25),
			)
			if err != nil {
				poolErr = err
				return
			}
			poolProf = append(poolProf, p)
		}
	})
	if poolErr != nil {
		t.Fatal(poolErr)
	}
	if n > len(poolProf) {
		t.Fatalf("test wants %d profiles, harness builds %d", n, len(poolProf))
	}
	return poolProf[:n]
}

func TestPoolReadAndStatsBreakdown(t *testing.T) {
	profiles := poolProfiles(t, 4)
	pool, err := OpenPool(context.Background(), profiles)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Devices() != 4 || pool.Healthy() != 4 {
		t.Fatalf("pool opened %d devices (%d healthy), want 4/4", pool.Devices(), pool.Healthy())
	}
	buf := make([]byte, 2048)
	if _, err := pool.Read(buf); err != nil {
		t.Fatal(err)
	}
	checkBias(t, buf)

	st := pool.Stats()
	if len(st.Devices) != 4 {
		t.Fatalf("stats report %d devices, want 4", len(st.Devices))
	}
	if st.BitsDelivered != int64(len(buf)*8) {
		t.Errorf("BitsDelivered = %d, want %d", st.BitsDelivered, len(buf)*8)
	}
	var delivered, harvested int64
	for i, d := range st.Devices {
		if d.Device != i || d.Serial != profiles[i].Serial || d.Backend != "sim" {
			t.Errorf("device %d breakdown = %+v", i, d)
		}
		if !d.Healthy || d.Evicted {
			t.Errorf("device %d unexpectedly unhealthy: %+v", i, d)
		}
		if d.BitsDelivered == 0 {
			t.Errorf("device %d delivered no bits; least-loaded scheduling should spread demand", i)
		}
		if len(d.Shards) == 0 || d.ThroughputMbps <= 0 {
			t.Errorf("device %d missing shard stats or throughput: %+v", i, d)
		}
		delivered += d.BitsDelivered
		harvested += d.BitsHarvested
	}
	if delivered != st.BitsDelivered {
		t.Errorf("per-device delivered bits sum to %d, aggregate says %d", delivered, st.BitsDelivered)
	}
	if harvested != st.BitsHarvested {
		t.Errorf("per-device harvested bits sum to %d, aggregate says %d", harvested, st.BitsHarvested)
	}
	if len(st.Shards) != 4 {
		t.Errorf("flattened shard list has %d entries, want 4 (1 shard per device)", len(st.Shards))
	}

	// Least-loaded scheduling over same-rate devices is near-uniform.
	for i, d := range st.Devices {
		share := float64(d.BitsDelivered) / float64(delivered)
		if math.Abs(share-0.25) > 0.05 {
			t.Errorf("device %d served %.0f%% of demand, want ~25%%", i, share*100)
		}
	}
}

// TestPoolDeterministicAndConcurrent drives a 4-device pool from many
// goroutines under the race detector, then checks that a sequential run over
// an identical pool is deterministic.
func TestPoolDeterministicAndConcurrent(t *testing.T) {
	profiles := poolProfiles(t, 4)
	pool, err := OpenPool(context.Background(), profiles)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 512)
			for i := 0; i < 4; i++ {
				if _, err := pool.Read(buf); err != nil {
					t.Errorf("concurrent pool read: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Read(make([]byte, 8)); err == nil {
		t.Error("read after Close succeeded")
	}

	readAll := func() []byte {
		p, err := OpenPool(context.Background(), profiles)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		buf := make([]byte, 1024)
		if _, err := p.Read(buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if !bytes.Equal(readAll(), readAll()) {
		t.Error("two identical deterministic pools produced different bytes")
	}
}

// TestPoolThroughputScaling is the acceptance check that a 4-device pool
// reaches at least 3x the simulated throughput of a single-device source:
// each device is an independent DRAM channel hierarchy, so aggregate rate is
// the sum of the member rates (the paper's multi-channel scaling argument at
// fleet scale). BenchmarkPoolScaling reports the same numbers as a benchmark.
func TestPoolThroughputScaling(t *testing.T) {
	profiles := poolProfiles(t, 4)

	rate := func(n int) float64 {
		p, err := OpenPool(context.Background(), profiles[:n])
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		buf := make([]byte, 4096)
		if _, err := p.Read(buf); err != nil {
			t.Fatal(err)
		}
		return p.Stats().AggregateThroughputMbps
	}
	single := rate(1)
	quad := rate(4)
	if single <= 0 || quad <= 0 {
		t.Fatalf("non-positive throughput: single=%v quad=%v", single, quad)
	}
	if quad < 3*single {
		t.Errorf("4-device pool sustains %.1f Mb/s, single device %.1f Mb/s; want >= 3x", quad, single)
	}
}

// biasOnly is a health-test policy whose only live verdicts are the bias and
// temperature windows: the startup self-test is off and the RCT/APT cutoffs
// sit out of reach, so a stuck device is caught by its first bias window
// rather than by the RCT a few bits in.
func biasOnly(windowBits int, maxBiasDelta float64) HealthTestPolicy {
	return HealthTestPolicy{
		BiasWindowBits: windowBits,
		MaxBiasDelta:   maxBiasDelta,
		RCTCutoff:      1 << 20,
		APTWindow:      1 << 20,
		APTCutoff:      1 << 19,
		StartupBits:    -1,
	}
}

// TestPoolEvictsFaultyDevice is the acceptance check for bias eviction: a
// pool with one faulty member (every column stuck at 1 — maximal bias drift)
// must evict it once its monitor's bias window completes, and no Read may
// ever fail while healthy devices remain.
func TestPoolEvictsFaultyDevice(t *testing.T) {
	profiles := poolProfiles(t, 4)
	pool, err := OpenPool(context.Background(), profiles,
		WithDeviceBackend(2, "faulty", map[string]string{"stuck": "1", "stuck-value": "1"}),
		WithHealthTests(biasOnly(512, 0.2)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Drive well past the faulty member's first health window; every read
	// must succeed.
	buf := make([]byte, 512)
	for i := 0; i < 16; i++ {
		if _, err := pool.Read(buf); err != nil {
			t.Fatalf("pool read %d failed during eviction: %v", i, err)
		}
	}
	st := pool.Stats()
	if pool.Healthy() != 3 {
		t.Fatalf("healthy devices = %d, want 3 after evicting the faulty member (devices: %+v)", pool.Healthy(), st.Devices)
	}
	d := st.Devices[2]
	if !d.Evicted || d.Backend != "faulty" || !strings.Contains(d.Reason, "health test bias tripped") {
		t.Errorf("faulty member state = %+v, want a bias eviction", d)
	}
	if d.Health == nil || d.Health.BiasTrips != 1 || d.Health.TotalTrips != 1 {
		t.Fatalf("faulty member health = %+v, want exactly one bias trip", d.Health)
	}
	if d.Health.BiasDelta < 0.4 {
		t.Errorf("faulty member bias delta = %v, want ~0.5 (all-ones harvest)", d.Health.BiasDelta)
	}
	if st.Health.BiasDelta != d.Health.BiasDelta {
		t.Errorf("aggregate bias delta = %v, want the largest member's %v", st.Health.BiasDelta, d.Health.BiasDelta)
	}
	for i, dd := range st.Devices {
		if i != 2 && dd.Evicted {
			t.Errorf("healthy device %d evicted: %+v", i, dd)
		}
	}

	// Post-eviction output comes from healthy devices only and stays
	// unbiased.
	post := make([]byte, 2048)
	if _, err := pool.Read(post); err != nil {
		t.Fatal(err)
	}
	checkBias(t, post)
}

// TestPoolKeepsLastDevice: the health tests never evict the final healthy
// device — degraded output with a recorded violation beats failing reads.
func TestPoolKeepsLastDevice(t *testing.T) {
	profiles := poolProfiles(t, 1)
	pool, err := OpenPool(context.Background(), profiles,
		WithBackend("faulty", map[string]string{"stuck": "1"}),
		WithHealthTests(biasOnly(256, 0.1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	buf := make([]byte, 512)
	for i := 0; i < 4; i++ {
		if _, err := pool.Read(buf); err != nil {
			t.Fatalf("read from a degraded single-device pool failed: %v", err)
		}
	}
	if pool.Healthy() != 1 {
		t.Fatalf("last device was evicted")
	}
	d := pool.Stats().Devices[0]
	if !strings.Contains(d.Reason, "retained") || !strings.Contains(d.Reason, "health test bias tripped") {
		t.Errorf("retained-device bias violation not recorded: %+v", d)
	}
}

// TestPoolRetainedComplaintClearedByCleanWindow: a retained last member's
// complaint lasts only until its monitor completes a clean bias window, so a
// transient excursion does not flag the device forever.
func TestPoolRetainedComplaintClearedByCleanWindow(t *testing.T) {
	pool, err := OpenPool(context.Background(), poolProfiles(t, 1),
		WithHealthTests(HealthTestPolicy{StartupBits: -1}))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.mu.Lock()
	pool.retireLocked(pool.members[0], "test: transient excursion")
	pool.mu.Unlock()
	if d := pool.Stats().Devices[0]; !d.Healthy || !strings.Contains(d.Reason, "retained") {
		t.Fatalf("last member after retirement = %+v, want retained with its complaint", d)
	}
	if _, err := pool.Read(make([]byte, 1024)); err != nil { // two 4096-bit windows
		t.Fatal(err)
	}
	d := pool.Stats().Devices[0]
	if d.Reason != "" {
		t.Errorf("complaint %q survived a clean window", d.Reason)
	}
	if d.Health == nil || d.Health.TotalTrips != 0 {
		t.Errorf("healthy member tripped: %+v", d.Health)
	}
}

func TestPoolTemperatureDriftEviction(t *testing.T) {
	profiles := poolProfiles(t, 2)
	pool, err := OpenPool(context.Background(), profiles,
		// Device 1 heats by 50 °C per 1000 reads but stays unbiased; only
		// the temperature check can catch it.
		WithDeviceBackend(1, "faulty", map[string]string{"stuck": "0", "drift": "50"}),
		WithHealthTests(HealthTestPolicy{BiasWindowBits: 512, StartupBits: -1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	buf := make([]byte, 2048)
	for i := 0; i < 8 && pool.Healthy() == 2; i++ {
		if _, err := pool.Read(buf); err != nil {
			t.Fatalf("read during temperature eviction: %v", err)
		}
	}
	if pool.Healthy() != 1 {
		t.Fatalf("hot device not evicted (devices: %+v)", pool.Stats().Devices)
	}
	st := pool.Stats()
	d := st.Devices[1]
	if !d.Evicted || !strings.Contains(d.Reason, "health test temp tripped") {
		t.Errorf("hot device state = %+v, want a temperature eviction", d)
	}
	if d.Health == nil || d.Health.TempTrips != 1 || d.Health.TotalTrips != 1 {
		t.Errorf("hot device health = %+v, want exactly one temp trip", d.Health)
	}
	if st.Health.TempTrips != 1 || st.Health.TotalTrips != 1 {
		t.Errorf("aggregate health = %+v, want the one temp trip", st.Health)
	}
	if base := st.Devices[0].TemperatureC; d.TemperatureC <= base+health.MaxTempDriftC {
		t.Errorf("evicted device reports %.1f °C, want its temperature at eviction, beyond %.1f °C of the %.1f °C sim default",
			d.TemperatureC, health.MaxTempDriftC, base)
	}
}

func TestPoolOptionValidation(t *testing.T) {
	profiles := poolProfiles(t, 2)
	ctx := context.Background()
	if _, err := OpenPool(ctx, nil); err == nil {
		t.Error("empty profile list accepted")
	}
	if _, err := OpenPool(ctx, []*Profile{profiles[0], nil}); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := OpenPool(ctx, profiles, WithDeviceBackend(5, "sim", nil)); err == nil {
		t.Error("out-of-range WithDeviceBackend index accepted")
	}
	dev, err := OpenBackend("sim", BackendParams{Manufacturer: "A"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPool(ctx, profiles, WithDevice(dev)); err == nil {
		t.Error("WithDevice accepted by OpenPool")
	}
	if _, err := OpenPool(ctx, profiles, WithSamples(10)); err == nil {
		t.Error("characterization option accepted by OpenPool")
	}
	if _, err := OpenPool(ctx, profiles, WithRecharacterization(RecharacterizationPolicy{}),
		WithHealthTests(HealthTestPolicy{Disabled: true})); err == nil {
		t.Error("WithRecharacterization accepted with disabled health tests")
	}
	if _, err := Characterize(ctx, WithDeviceBackend(0, "sim", nil)); err == nil {
		t.Error("WithDeviceBackend accepted by Characterize")
	}
}

// TestPoolPostprocess runs a corrector chain over the multiplexed stream.
func TestPoolPostprocess(t *testing.T) {
	profiles := poolProfiles(t, 2)
	pool, err := OpenPool(context.Background(), profiles, WithPostprocess(VonNeumann()))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	bits, err := pool.ReadBits(1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) != 1024 {
		t.Fatalf("ReadBits returned %d bits", len(bits))
	}
	bias, err := entropy.Bias(bits)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bias-0.5) > 0.06 {
		t.Errorf("post-processed pool bias = %v", bias)
	}
	st := pool.Stats()
	if st.BitsDelivered != 1024 {
		t.Errorf("BitsDelivered = %d, want the post-chain output count 1024", st.BitsDelivered)
	}
	if st.BitsHarvested <= 1024 {
		t.Errorf("BitsHarvested = %d; von Neumann should consume far more raw bits than it yields", st.BitsHarvested)
	}
}
