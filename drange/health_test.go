package drange

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

// stuckBackendOpts configures the faulty backend as a fully stuck device:
// every column reads 1, the worst case the health tests must catch.
func stuckBackendOpts() map[string]string {
	return map[string]string{"stuck": "1", "stuck-value": "1"}
}

// noStartup disables the startup self-test so the continuous RCT/APT path is
// exercised (the startup test would otherwise reject a stuck device at Open).
func noStartup(p HealthTestPolicy) HealthTestPolicy {
	p.StartupBits = -1
	return p
}

// TestHealthStartupRejectsStuckDevice: with the default policy the startup
// self-test runs at Open, before any byte is served — a stuck device never
// produces a usable Source.
func TestHealthStartupRejectsStuckDevice(t *testing.T) {
	_, err := Open(context.Background(), quickProfile(t),
		WithBackend("faulty", stuckBackendOpts()),
		WithHealthTests(HealthTestPolicy{}))
	var herr *HealthError
	if !errors.As(err, &herr) {
		t.Fatalf("Open on a stuck device returned %v, want a *HealthError", err)
	}
	if herr.Test != "startup" || herr.Device != -1 {
		t.Errorf("startup failure reported as %+v", herr)
	}

	// The same policy on a healthy device opens fine, serves bytes, and
	// reports the startup pass in Stats.Health.
	src := openQuick(t, WithHealthTests(HealthTestPolicy{}))
	buf := make([]byte, 64)
	if _, err := src.Read(buf); err != nil {
		t.Fatal(err)
	}
	h := src.Stats().Health
	if h == nil || !h.StartupPassed || h.TotalTrips != 0 {
		t.Errorf("healthy source health stats = %+v", h)
	}
}

// TestHealthErrorPolicyOnStuckDevice: acceptance check for the Error policy —
// a faulty stuck-column device trips the RCT/APT and every read surfaces a
// typed *HealthError while the source stays open.
func TestHealthErrorPolicyOnStuckDevice(t *testing.T) {
	src, err := Open(context.Background(), quickProfile(t),
		WithBackend("faulty", stuckBackendOpts()),
		WithHealthTests(noStartup(HealthTestPolicy{OnFailure: HealthActionError})))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	_, rerr := src.ReadBits(256)
	var herr *HealthError
	if !errors.As(rerr, &herr) {
		t.Fatalf("read from a stuck device returned %v, want a *HealthError", rerr)
	}
	if herr.Test != "rct" && herr.Test != "apt" {
		t.Errorf("stuck columns tripped %q, want rct or apt", herr.Test)
	}
	if herr.Device != -1 {
		t.Errorf("single-source trip reports device %d, want -1", herr.Device)
	}
	// Repeated reads keep failing and the trip counters keep climbing.
	if _, err := src.ReadBits(256); err == nil {
		t.Error("second read from a stuck device succeeded")
	}
	h := src.Stats().Health
	if h == nil || h.RCTTrips+h.APTTrips < 2 || h.TotalTrips != h.RCTTrips+h.APTTrips+h.BiasTrips {
		t.Errorf("health stats after two trips = %+v", h)
	}
	if h.LastViolation == "" {
		t.Error("LastViolation empty after a trip")
	}
}

// TestHealthBlockPolicy: Block stalls on dirty windows — on a permanently
// stuck device it exhausts MaxBlockedWindows and fails loudly; on a healthy
// device it is invisible.
func TestHealthBlockPolicy(t *testing.T) {
	src, err := Open(context.Background(), quickProfile(t),
		WithBackend("faulty", stuckBackendOpts()),
		WithHealthTests(noStartup(HealthTestPolicy{OnFailure: HealthActionBlock, MaxBlockedWindows: 4})))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	_, rerr := src.ReadBits(256)
	var herr *HealthError
	if !errors.As(rerr, &herr) || herr.Test != "blocked" {
		t.Fatalf("blocked read returned %v, want a *HealthError with Test=blocked", rerr)
	}
	if h := src.Stats().Health; h == nil || h.BlockedWindows != 4 {
		t.Errorf("health stats after exhausting the block budget = %+v", h)
	}

	healthy := openQuick(t, WithHealthTests(noStartup(HealthTestPolicy{OnFailure: HealthActionBlock})))
	bits, err := healthy.ReadBits(4096)
	if err != nil || len(bits) != 4096 {
		t.Fatalf("healthy blocking read: %d bits, err %v", len(bits), err)
	}
	if h := healthy.Stats().Health; h.BlockedWindows != 0 {
		t.Errorf("healthy source discarded %d windows", h.BlockedWindows)
	}
}

// TestHealthEvictPolicyInPool: acceptance check for the pool policy — the
// stuck member is evicted by the health tests while Read keeps succeeding,
// and the output stays unbiased.
func TestHealthEvictPolicyInPool(t *testing.T) {
	profiles := poolProfiles(t, 4)
	pool, err := OpenPool(context.Background(), profiles,
		WithDeviceBackend(2, "faulty", stuckBackendOpts()),
		WithHealthTests(noStartup(HealthTestPolicy{})))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	buf := make([]byte, 512)
	for i := 0; i < 16; i++ {
		if _, err := pool.Read(buf); err != nil {
			t.Fatalf("pool read %d failed during health eviction: %v", i, err)
		}
	}
	if pool.Healthy() != 3 {
		t.Fatalf("healthy devices = %d, want 3 (devices: %+v)", pool.Healthy(), pool.Stats().Devices)
	}
	st := pool.Stats()
	d := st.Devices[2]
	if !d.Evicted || !strings.Contains(d.Reason, "health test") {
		t.Errorf("stuck member state = %+v, want a health-test eviction", d)
	}
	if d.Health == nil || d.Health.RCTTrips+d.Health.APTTrips == 0 {
		t.Errorf("stuck member health stats = %+v, want RCT/APT trips", d.Health)
	}
	if st.Health == nil || st.Health.TotalTrips == 0 {
		t.Errorf("aggregate health stats = %+v", st.Health)
	}
	for i, dd := range st.Devices {
		if i == 2 {
			continue
		}
		if dd.Evicted {
			t.Errorf("healthy device %d evicted: %+v", i, dd)
		}
		if dd.Health == nil || dd.Health.TotalTrips != 0 {
			t.Errorf("healthy device %d health stats = %+v", i, dd.Health)
		}
	}
	post := make([]byte, 2048)
	if _, err := pool.Read(post); err != nil {
		t.Fatal(err)
	}
	checkBias(t, post)
}

// TestHealthPoolStartupEviction: a member failing its startup self-test under
// the (default) evict action never serves a byte; a pool whose every member
// fails must not open at all.
func TestHealthPoolStartupEviction(t *testing.T) {
	profiles := poolProfiles(t, 3)
	pool, err := OpenPool(context.Background(), profiles,
		WithDeviceBackend(1, "faulty", stuckBackendOpts()),
		WithHealthTests(HealthTestPolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Healthy() != 2 {
		t.Fatalf("healthy devices = %d, want 2 after startup eviction", pool.Healthy())
	}
	d := pool.Stats().Devices[1]
	if !d.Evicted || !strings.Contains(d.Reason, "startup") || d.Health == nil || d.Health.StartupPassed {
		t.Errorf("startup-failed member state = %+v (health %+v)", d, d.Health)
	}
	if st := pool.Stats(); st.Health == nil || st.Health.StartupPassed {
		t.Errorf("aggregate startup state = %+v, want StartupPassed=false", st.Health)
	}
	buf := make([]byte, 256)
	if _, err := pool.Read(buf); err != nil {
		t.Fatalf("read after startup eviction: %v", err)
	}

	if _, err := OpenPool(context.Background(), profiles[:1],
		WithBackend("faulty", stuckBackendOpts()),
		WithHealthTests(HealthTestPolicy{})); err == nil {
		t.Error("a pool whose every member fails startup opened anyway")
	}
}

// TestHealthPoolErrorPolicy: the Error action surfaces the member index.
func TestHealthPoolErrorPolicy(t *testing.T) {
	profiles := poolProfiles(t, 2)
	pool, err := OpenPool(context.Background(), profiles,
		WithDeviceBackend(1, "faulty", stuckBackendOpts()),
		WithHealthTests(noStartup(HealthTestPolicy{OnFailure: HealthActionError})))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var herr *HealthError
	for i := 0; i < 64; i++ {
		if _, err := pool.ReadBits(64); err != nil {
			if !errors.As(err, &herr) {
				t.Fatalf("pool read failed with %v, want a *HealthError", err)
			}
			break
		}
	}
	if herr == nil {
		t.Fatal("no health error from a pool with a stuck member under the Error action")
	}
	if herr.Device != 1 {
		t.Errorf("trip reported on device %d, want 1", herr.Device)
	}
}

// TestHealthySoakZeroTrips: the acceptance soak — healthy sim devices, the
// full default battery, concurrent readers under the race detector, zero
// trips. Both the single sharded source and the pool are exercised.
func TestHealthySoakZeroTrips(t *testing.T) {
	soak := func(t *testing.T, src Source) {
		t.Helper()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 1024)
				for i := 0; i < 8; i++ {
					if _, err := src.Read(buf); err != nil {
						t.Errorf("soak read: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		h := src.Stats().Health
		if h == nil {
			t.Fatal("Stats.Health nil with WithHealthTests attached")
		}
		if h.TotalTrips != 0 || h.BlockedWindows != 0 {
			t.Errorf("healthy soak tripped: %+v", h)
		}
		if !h.StartupPassed {
			t.Error("healthy startup reported as failed")
		}
		if h.BitsTested < 4*8*1024*8 {
			t.Errorf("BitsTested = %d, want at least the %d delivered bits", h.BitsTested, 4*8*1024*8)
		}
	}
	t.Run("sharded", func(t *testing.T) {
		soak(t, openQuick(t, WithShards(2), WithHealthTests(HealthTestPolicy{})))
	})
	t.Run("pool", func(t *testing.T) {
		pool, err := OpenPool(context.Background(), poolProfiles(t, 2), WithHealthTests(HealthTestPolicy{}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		soak(t, pool)
	})
}

// TestHealthTestsOptionValidation covers option scoping and bad policies.
func TestHealthTestsOptionValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Characterize(ctx, WithHealthTests(HealthTestPolicy{})); err == nil {
		t.Error("WithHealthTests accepted by Characterize")
	}
	if _, err := Open(ctx, quickProfile(t), WithHealthTests(HealthTestPolicy{OnFailure: HealthActionEvict})); err == nil {
		t.Error("HealthActionEvict accepted by Open (nothing to evict)")
	}
	if _, err := Open(ctx, quickProfile(t), WithHealthTests(HealthTestPolicy{SymbolBits: 99})); err == nil {
		t.Error("symbol width 99 accepted")
	}
	// Disabled policies are inert: no Stats.Health, no startup harvest.
	src := openQuick(t, WithHealthTests(HealthTestPolicy{Disabled: true}))
	if h := src.Stats().Health; h != nil {
		t.Errorf("disabled policy still reports health stats: %+v", h)
	}
}

// TestHealthTestsWithPostprocess: the monitor watches the raw stream feeding
// the corrector chain, so BitsTested outpaces the post-processed delivery.
func TestHealthTestsWithPostprocess(t *testing.T) {
	src := openQuick(t,
		WithPostprocess(VonNeumann()),
		WithHealthTests(noStartup(HealthTestPolicy{})))
	bits, err := src.ReadBits(1024)
	if err != nil || len(bits) != 1024 {
		t.Fatalf("post-processed read: %d bits, err %v", len(bits), err)
	}
	h := src.Stats().Health
	if h == nil || h.BitsTested <= 1024 {
		t.Errorf("health stats %+v; the raw stream must be tested, not the corrected one", h)
	}
}
