package drange

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// packBitstream packs a bit-per-byte stream MSB-first, the byte encoding Read
// serves.
func packBitstream(t *testing.T, bits []byte) []byte {
	t.Helper()
	if len(bits)%8 != 0 {
		t.Fatalf("bitstream length %d not a byte multiple", len(bits))
	}
	out := make([]byte, len(bits)/8)
	core.PackBitsMSBFirst(bits, out)
	return out
}

// TestReadMatchesReadBits pins the packed serving path against the
// bit-per-byte contract: over identical deterministic sources, Read's bytes
// must equal ReadBits' bits packed MSB-first — for the default 1-shard
// source (the "sequential" case), a 2-shard source, a monitored source and a
// post-processed source.
func TestReadMatchesReadBits(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"sequential", nil},
		{"sharded", []Option{WithShards(2)}},
		{"monitored", []Option{WithHealthTests(HealthTestPolicy{StartupBits: -1})}},
		{"monitored-sharded", []Option{WithShards(2), WithHealthTests(HealthTestPolicy{StartupBits: -1})}},
		{"postprocessed", []Option{WithPostprocess(XORDecimator(2))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			byBytes := openQuick(t, tc.opts...)
			byBits := openQuick(t, tc.opts...)
			buf := make([]byte, 512)
			if _, err := byBytes.Read(buf); err != nil {
				t.Fatal(err)
			}
			bits, err := byBits.ReadBits(len(buf) * 8)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, packBitstream(t, bits)) {
				t.Error("Read bytes differ from packed ReadBits stream")
			}
		})
	}
}

// TestReadBitsInterleavedWithRead: bit-granular and byte-granular reads drain
// one shared stream — an odd-length ReadBits must not lose or duplicate bits
// for a following Read.
func TestReadBitsInterleavedWithRead(t *testing.T) {
	mixed := openQuick(t, WithShards(2))
	reference := openQuick(t, WithShards(2))

	var gotBits []byte
	b1, err := mixed.ReadBits(13)
	if err != nil {
		t.Fatal(err)
	}
	gotBits = append(gotBits, b1...)
	buf := make([]byte, 16)
	if _, err := mixed.Read(buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(buf)*8; i++ {
		gotBits = append(gotBits, (buf[i/8]>>uint(7-i%8))&1)
	}
	b2, err := mixed.ReadBits(11)
	if err != nil {
		t.Fatal(err)
	}
	gotBits = append(gotBits, b2...)

	want, err := reference.ReadBits(len(gotBits))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBits, want) {
		t.Error("interleaved Read/ReadBits stream diverges from the pure-bit stream")
	}
}

// TestPoolReadMatchesReadBits pins the pool's packed fast path against its
// bit-granular locked path over identical deterministic pools.
func TestPoolReadMatchesReadBits(t *testing.T) {
	profiles := poolProfiles(t, 2)
	byBytes, err := OpenPool(context.Background(), profiles)
	if err != nil {
		t.Fatal(err)
	}
	defer byBytes.Close()
	byBits, err := OpenPool(context.Background(), profiles)
	if err != nil {
		t.Fatal(err)
	}
	defer byBits.Close()

	buf := make([]byte, 512)
	if _, err := byBytes.Read(buf); err != nil {
		t.Fatal(err)
	}
	bits, err := byBits.ReadBits(len(buf) * 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, packBitstream(t, bits)) {
		t.Error("pool Read bytes differ from packed pool ReadBits stream")
	}
}

// TestPoolReadBitsInterleavedWithRead: a bit-granular pool read leaves
// sub-word remainders buffered in members; a following Read must serve the
// exact stream a same-length ReadBits would (the remainder forces the locked
// path, so the fast path cannot skip ahead to fresh engine words and reorder
// a member's own bits). The pool's member schedule is per-fetch, so the
// comparison keeps identical call boundaries on both pools.
func TestPoolReadBitsInterleavedWithRead(t *testing.T) {
	profiles := poolProfiles(t, 2)
	mixed, err := OpenPool(context.Background(), profiles)
	if err != nil {
		t.Fatal(err)
	}
	defer mixed.Close()
	reference, err := OpenPool(context.Background(), profiles)
	if err != nil {
		t.Fatal(err)
	}
	defer reference.Close()

	if _, err := mixed.ReadBits(13); err != nil {
		t.Fatal(err)
	}
	if _, err := reference.ReadBits(13); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	if _, err := mixed.Read(buf); err != nil {
		t.Fatal(err)
	}
	bits, err := reference.ReadBits(len(buf) * 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, packBitstream(t, bits)) {
		t.Error("Read after a bit-granular read diverges from the equivalent ReadBits stream")
	}
}

// TestPoolConcurrentReadWithEviction stresses the monitored (locked) read
// path under the race detector while a faulty member is bias-evicted
// mid-traffic: no read may fail, and the faulty member must go.
func TestPoolConcurrentReadWithEviction(t *testing.T) {
	profiles := poolProfiles(t, 4)
	pool, err := OpenPool(context.Background(), profiles,
		WithDeviceBackend(1, "faulty", map[string]string{"stuck": "1", "stuck-value": "1"}),
		WithHealthTests(biasOnly(512, 0.2)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 256)
			for i := 0; i < 8; i++ {
				if _, err := pool.Read(buf); err != nil {
					t.Errorf("concurrent read during eviction: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if pool.Healthy() != 3 {
		t.Fatalf("healthy = %d after concurrent eviction, want 3 (%+v)", pool.Healthy(), pool.Stats().Devices)
	}
	d := pool.Stats().Devices[1]
	if !d.Evicted || !strings.Contains(d.Reason, "health test bias tripped") {
		t.Errorf("faulty member not bias-evicted: %+v", d)
	}
}

// TestPoolConcurrentFastPathEviction stresses the lock-free Read fast path
// under the race detector: 8 readers keep reading an unmonitored 4-member
// pool while one member's engine is closed under them. No read may fail,
// and the member must be evicted for its engine failure.
func TestPoolConcurrentFastPathEviction(t *testing.T) {
	pool, err := OpenPool(context.Background(), poolProfiles(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var reads atomic.Int64
	var failed atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 256)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := pool.Read(buf); err != nil {
					t.Errorf("concurrent read during eviction: %v", err)
					failed.Store(true)
					return
				}
				reads.Add(1)
			}
		}()
	}
	// waitFor polls cond until it holds, a reader fails or a minute passes.
	waitFor := func(cond func() bool) {
		deadline := time.Now().Add(time.Minute)
		for !cond() && !failed.Load() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	waitReads := func(n int64) { waitFor(func() bool { return reads.Load() >= n }) }
	waitReads(32)
	pool.mu.Lock()
	eng := pool.members[1].eng
	pool.mu.Unlock()
	eng.Close()
	// Keep the readers going until the least-loaded scheduler has run the
	// closed engine dry and evicted the member, and then some.
	waitFor(func() bool { return pool.Healthy() < 4 })
	waitReads(reads.Load() + 32)
	close(stop)
	wg.Wait()

	if pool.Healthy() != 3 {
		t.Fatalf("healthy = %d after the engine failure, want 3 (%+v)", pool.Healthy(), pool.Stats().Devices)
	}
	d := pool.Stats().Devices[1]
	if !d.Evicted || !strings.Contains(d.Reason, "engine failure") {
		t.Errorf("member with the closed engine: %+v, want an engine-failure eviction", d)
	}
}

// TestPoolBlockedSchedulerNoStarvation is the regression test for the
// HealthActionBlock starvation bug: a member whose batches are discarded must
// still accrue load, so the least-loaded scheduler rotates to the healthy
// members and reads keep succeeding.
func TestPoolBlockedSchedulerNoStarvation(t *testing.T) {
	profiles := poolProfiles(t, 3)
	pool, err := OpenPool(context.Background(), profiles,
		WithDeviceBackend(0, "faulty", map[string]string{"stuck": "1", "stuck-value": "1"}),
		WithHealthTests(HealthTestPolicy{StartupBits: -1, OnFailure: HealthActionBlock}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// The stuck member trips on every fetched word; before the fix its
	// fetched count never advanced, so the scheduler re-picked it until the
	// shared budget failed the read even though two healthy members idled.
	buf := make([]byte, 1024)
	for i := 0; i < 4; i++ {
		if _, err := pool.Read(buf); err != nil {
			t.Fatalf("read %d failed during blocking: %v", i, err)
		}
	}
	st := pool.Stats()
	if st.Devices[0].Health == nil || st.Devices[0].Health.BlockedWindows == 0 {
		t.Errorf("faulty member reports no blocked windows: %+v", st.Devices[0])
	}
	for i := 1; i < 3; i++ {
		if st.Devices[i].BitsDelivered == 0 {
			t.Errorf("healthy member %d served nothing; scheduler starved behind the blocked member", i)
		}
	}
}

// TestPostprocessExhaustionReportsTotal: the chain-exhaustion error must
// report the cumulative raw bits the doubling rounds actually harvested, not
// the final batch size (satellite of issue 5).
func TestPostprocessExhaustionReportsTotal(t *testing.T) {
	chain, err := newPostChain([]Corrector{discardAll{}})
	if err != nil {
		t.Fatal(err)
	}
	rawPacked := func(dst []byte) error {
		for i := range dst {
			dst[i] = 0xAA
		}
		return nil
	}
	_, err = chain.readBits(8, rawPacked)
	if err == nil {
		t.Fatal("all-discarding chain did not fail")
	}
	// Batches double from basePostBatch until exceeding maxPostBatch; the
	// error must carry their sum.
	total := 0
	for b := basePostBatch; b <= maxPostBatch; b *= 2 {
		total += b
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%d raw bits", total)) {
		t.Errorf("exhaustion error does not report the cumulative total %d: %v", total, err)
	}
}

// discardAll is a custom corrector with no packed fast path that consumes
// everything — it exercises both the unpack/repack adapter and the
// exhaustion accounting.
type discardAll struct{}

func (discardAll) Name() string                   { return "discard-all" }
func (discardAll) Process([]byte) ([]byte, error) { return nil, nil }

// TestRunNISTBoundsGuard: absurd bit counts are rejected before any
// allocation or harvesting happens.
func TestRunNISTBoundsGuard(t *testing.T) {
	src := openQuick(t)
	g := src.(*Generator)
	if _, err := g.RunNIST(maxNISTBits+1, 0); err == nil {
		t.Error("oversized RunNIST request accepted")
	}
	if _, err := g.RunNIST(-5, 0); err == nil {
		t.Error("negative RunNIST request accepted")
	}
}
