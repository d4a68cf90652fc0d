package drange

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var (
	lifecycleOnce sync.Once
	lifecycleProf []*Profile
	lifecycleErr  error
)

// lifecycleProfiles characterizes three small deterministic devices for the
// self-healing tests. The region is kept tiny so the targeted
// re-characterization pass (which the tests wait out, sometimes under the
// race detector) completes in test time.
func lifecycleProfiles(t *testing.T, n int) []*Profile {
	t.Helper()
	lifecycleOnce.Do(func() {
		for serial := uint64(301); serial < 301+3; serial++ {
			p, err := Characterize(context.Background(),
				WithManufacturer("A"),
				WithSerial(serial),
				WithDeterministic(true),
				WithGeometry(quickGeometry()),
				WithProfilingRegion(16, 4, 2),
				WithSamples(300),
				WithTolerance(0.4),
				WithMaxBiasDelta(0.03),
				WithScreenIterations(25),
			)
			if err != nil {
				lifecycleErr = err
				return
			}
			lifecycleProf = append(lifecycleProf, p)
		}
	})
	if lifecycleErr != nil {
		t.Fatal(lifecycleErr)
	}
	if n > len(lifecycleProf) {
		t.Fatalf("test wants %d profiles, harness builds %d", n, len(lifecycleProf))
	}
	return lifecycleProf[:n]
}

// quickRecharPolicy keeps the in-test re-characterization passes short.
func quickRecharPolicy() RecharacterizationPolicy {
	return RecharacterizationPolicy{Iterations: 30, Rounds: 2, MaxDrift: 0.3}
}

// forceQuarantine pushes a serving member into the lifecycle the way a health
// trip would, through the same retireLocked path.
func forceQuarantine(t *testing.T, p *Pool, idx int, reason string) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.members[idx].serving() {
		t.Fatalf("member %d not serving before forced quarantine", idx)
	}
	p.retireLocked(p.members[idx], reason)
	if got := p.members[idx].lifecycle(); got != memberQuarantined {
		t.Fatalf("member %d lifecycle after retire = %v, want quarantined", idx, got)
	}
}

// waitReadmitted polls Stats until device idx is serving again with at least
// one readmission, failing the test on timeout.
func waitReadmitted(t *testing.T, p *Pool, idx int, timeout time.Duration) PoolDeviceStats {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := p.Stats()
		d := st.Devices[idx]
		if d.State == "serving" && d.Readmissions >= 1 {
			return d
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("device %d not readmitted within %v: state %q, readmissions %d, rechar failures %d, reason %q",
				idx, timeout, d.State, d.Readmissions, d.RecharFailures, d.Reason)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPoolReadmitUnderConcurrentReads cycles a member through
// quarantine → re-characterization → readmission while 8 goroutines read the
// pool continuously. No read may fail at any point in the cycle, and the
// member must come back serving with a profile delta. The lifecycle implies
// the default health tests, so the readmitted engine also passes the startup
// self-test. Run under -race this also pins the readmission swap against the
// concurrent readers.
func TestPoolReadmitUnderConcurrentReads(t *testing.T) {
	profiles := lifecycleProfiles(t, 3)
	pool, err := OpenPool(context.Background(), profiles,
		WithRecharacterization(quickRecharPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	stop := make(chan struct{})
	var readErr atomic.Value
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := pool.Read(buf); err != nil {
					readErr.Store(err)
					return
				}
			}
		}()
	}

	forceQuarantine(t, pool, 1, "test: forced bias drift")
	d := waitReadmitted(t, pool, 1, 2*time.Minute)
	close(stop)
	wg.Wait()

	if err, ok := readErr.Load().(error); ok {
		t.Fatalf("concurrent read failed during the lifecycle cycle: %v", err)
	}
	if d.ProfileDeltas < 1 {
		t.Errorf("readmitted device carries %d profile deltas, want >= 1", d.ProfileDeltas)
	}
	if d.Reason != "" {
		t.Errorf("readmitted device still carries reason %q", d.Reason)
	}
	st := pool.Stats()
	if st.Lifecycle == nil {
		t.Fatal("pool with WithRecharacterization reports no lifecycle stats")
	}
	if st.Lifecycle.Serving != 3 || st.Lifecycle.Evicted != 0 {
		t.Errorf("lifecycle = %+v, want 3 serving / 0 evicted", st.Lifecycle)
	}
	if st.Lifecycle.Readmissions < 1 || st.Lifecycle.Recharacterizations < 1 {
		t.Errorf("lifecycle counters = %+v, want >= 1 readmission and re-characterization", st.Lifecycle)
	}
	// The readmitted member must serve again: drain enough that the
	// least-loaded scheduler reaches it.
	buf := make([]byte, 4096)
	if _, err := pool.Read(buf); err != nil {
		t.Fatal(err)
	}
}

// quiescePools stops issuing reads and waits until every device of both
// pools has filled its engine buffers and stopped harvesting, with both
// pools at identical per-device harvest counts. Only then is the devices'
// deterministic noise position equal across the pools, which the
// byte-identical resume property below depends on.
func quiescePools(t *testing.T, a, b *Pool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var last []int64
	stable := 0
	for time.Now().Before(deadline) {
		sa, sb := a.Stats(), b.Stats()
		cur := make([]int64, 0, len(sa.Devices)*2)
		equal := len(sa.Devices) == len(sb.Devices)
		for i := range sa.Devices {
			cur = append(cur, sa.Devices[i].BitsHarvested, sb.Devices[i].BitsHarvested)
			if sa.Devices[i].BitsHarvested != sb.Devices[i].BitsHarvested {
				equal = false
			}
		}
		same := last != nil && len(cur) == len(last)
		if same {
			for i := range cur {
				if cur[i] != last[i] {
					same = false
					break
				}
			}
		}
		if equal && same {
			if stable++; stable >= 3 {
				return
			}
		} else {
			stable = 0
		}
		last = cur
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("pools did not quiesce to equal harvest counts")
}

// TestReadmitResumesDeterministicStream is the resume property: an undrifted
// member taken through the full quarantine → re-characterization →
// readmission cycle under deterministic noise is a reproducible operation.
// Two identical pools driven through the identical cycle serve byte-identical
// streams afterwards, and produce byte-identical profile deltas.
func TestReadmitResumesDeterministicStream(t *testing.T) {
	profiles := lifecycleProfiles(t, 3)
	open := func() *Pool {
		p, err := OpenPool(context.Background(), profiles,
			WithShards(1), WithRecharacterization(quickRecharPolicy()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	a, b := open(), open()

	readBoth := func(n, step int, when string) {
		t.Helper()
		ab, bb := make([]byte, step), make([]byte, step)
		for off := 0; off < n; off += step {
			if _, err := a.Read(ab); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Read(bb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ab, bb) {
				t.Fatalf("%s: pools diverge at offset %d\n a: %x\n b: %x", when, off, ab, bb)
			}
		}
	}

	readBoth(256, 16, "before quarantine")
	// The engines run ahead of the readers nondeterministically; only once
	// both pools' devices are blocked on full buffers at equal harvest
	// counts do their noise streams sit at the same position.
	quiescePools(t, a, b)

	forceQuarantine(t, a, 1, "test: forced bias drift")
	forceQuarantine(t, b, 1, "test: forced bias drift")
	da := waitReadmitted(t, a, 1, 2*time.Minute)
	db := waitReadmitted(t, b, 1, 2*time.Minute)
	if da.ProfileDeltas != db.ProfileDeltas {
		t.Fatalf("delta counts diverge: %d vs %d", da.ProfileDeltas, db.ProfileDeltas)
	}

	readBoth(1024, 16, "after readmission")

	// The targeted pass itself must have been deterministic: same stable
	// cells, same selections, same sealed delta checksum.
	a.mu.Lock()
	pa := a.members[1].profile
	a.mu.Unlock()
	b.mu.Lock()
	pb := b.members[1].profile
	b.mu.Unlock()
	if len(pa.Deltas) == 0 || len(pb.Deltas) == 0 {
		t.Fatal("readmitted members carry no profile delta")
	}
	if pa.Deltas[0].Checksum != pb.Deltas[0].Checksum {
		t.Errorf("profile deltas diverge:\n a: %s\n b: %s", pa.Deltas[0].Checksum, pb.Deltas[0].Checksum)
	}
	if pa.Checksum != pb.Checksum {
		t.Errorf("readmitted profiles diverge: %s vs %s", pa.Checksum, pb.Checksum)
	}
}

// TestReadmitKeepsStartupPassedWithoutStartupTest is the regression test for
// a readmitted member reporting a failed startup self-test that never ran:
// with startup tests off, StartupPassed must stay true across the cycle, on
// the member and in the aggregate.
func TestReadmitKeepsStartupPassedWithoutStartupTest(t *testing.T) {
	pool, err := OpenPool(context.Background(), lifecycleProfiles(t, 3),
		WithRecharacterization(quickRecharPolicy()),
		WithHealthTests(noStartup(HealthTestPolicy{})))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	startupPassed := func(when string) {
		t.Helper()
		st := pool.Stats()
		if h := st.Devices[1].Health; h == nil || !h.StartupPassed {
			t.Errorf("%s: member 1 health = %+v, want StartupPassed", when, h)
		}
		if st.Health == nil || !st.Health.StartupPassed {
			t.Errorf("%s: aggregate health = %+v, want StartupPassed", when, st.Health)
		}
	}
	startupPassed("before quarantine")
	forceQuarantine(t, pool, 1, "test: forced bias drift")
	waitReadmitted(t, pool, 1, 2*time.Minute)
	startupPassed("after readmission")
}

// TestRecharacterizationImpliesHealthTests: only a health-test trip
// quarantines a member, so the lifecycle attaches the default battery when
// no health-test policy is given.
func TestRecharacterizationImpliesHealthTests(t *testing.T) {
	pool, err := OpenPool(context.Background(), lifecycleProfiles(t, 2),
		WithRecharacterization(quickRecharPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Read(make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Health == nil || !st.Health.StartupPassed || st.Health.BitsTested < 1024*8 {
		t.Errorf("health stats = %+v, want the implied default battery over every read bit", st.Health)
	}
}

// TestRecharacterizationDisabledEvicts: Disabled turns the lifecycle off —
// a retired member is evicted terminally, as without WithRecharacterization.
func TestRecharacterizationDisabledEvicts(t *testing.T) {
	profiles := lifecycleProfiles(t, 3)
	pool, err := OpenPool(context.Background(), profiles,
		WithRecharacterization(RecharacterizationPolicy{Disabled: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.mu.Lock()
	pool.retireLocked(pool.members[1], "test: forced drift")
	state := pool.members[1].lifecycle()
	pool.mu.Unlock()
	if state != memberEvicted {
		t.Fatalf("disabled lifecycle left member in %v, want evicted", state)
	}
	st := pool.Stats()
	if st.Lifecycle != nil {
		t.Error("disabled lifecycle still reports lifecycle stats")
	}
	if !st.Devices[1].Evicted || st.Devices[1].State != "evicted" {
		t.Errorf("device 1 stats = %+v, want evicted", st.Devices[1])
	}
}

// TestRecharacterizationRejectedOutsidePools: the option is pool-only.
func TestRecharacterizationRejectedOutsidePools(t *testing.T) {
	ctx := context.Background()
	if _, err := Open(ctx, lifecycleProfiles(t, 1)[0], WithRecharacterization(RecharacterizationPolicy{})); err == nil ||
		!strings.Contains(err.Error(), "WithRecharacterization") {
		t.Errorf("Open accepted WithRecharacterization: %v", err)
	}
	if _, err := Characterize(ctx, WithRecharacterization(RecharacterizationPolicy{})); err == nil ||
		!strings.Contains(err.Error(), "WithRecharacterization") {
		t.Errorf("Characterize accepted WithRecharacterization: %v", err)
	}
}
