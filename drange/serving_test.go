package drange

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// openQuickPool opens a 1-member pool over the shared test profile — the
// serving-core equivalence counterpart of openQuick.
func openQuickPool(t *testing.T, opts ...Option) *Pool {
	t.Helper()
	pool, err := OpenPool(context.Background(), []*Profile{quickProfile(t)}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return pool
}

// servingOp is one step of an interleaving applied identically to two
// sources; it returns the bytes the step produced (packed for byte reads,
// bit-per-byte for ReadBits) so the streams can be compared step by step.
type servingOp struct {
	name string
	run  func(t *testing.T, src Source) []byte
}

func opRead(n int) servingOp {
	return servingOp{"Read", func(t *testing.T, src Source) []byte {
		t.Helper()
		buf := make([]byte, n)
		if _, err := src.Read(buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}}
}

func opReadRaw(n int) servingOp {
	return servingOp{"ReadRaw", func(t *testing.T, src Source) []byte {
		t.Helper()
		buf := make([]byte, n)
		if _, err := src.ReadRaw(buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}}
}

func opReadBits(n int) servingOp {
	return servingOp{"ReadBits", func(t *testing.T, src Source) []byte {
		t.Helper()
		bits, err := src.ReadBits(n)
		if err != nil {
			t.Fatal(err)
		}
		return bits
	}}
}

var opUint64 = servingOp{"Uint64", func(t *testing.T, src Source) []byte {
	t.Helper()
	v, err := src.Uint64()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 8)
	for i := 0; i < 8; i++ {
		out[i] = byte(v >> uint(56-8*i))
	}
	return out
}}

// runInterleaving drives both sources through the same op sequence and
// asserts every step produces identical bytes, then that both report the
// same Stats apart from the pool's one-entry per-device breakdown.
func runInterleaving(t *testing.T, gen, pool Source, ops []servingOp) {
	t.Helper()
	for i, op := range ops {
		gb := op.run(t, gen)
		pb := op.run(t, pool)
		if !bytes.Equal(gb, pb) {
			t.Fatalf("step %d (%s): generator and 1-member pool diverge\n gen:  %x\n pool: %x", i, op.name, gb, pb)
		}
	}
	gs, ps := gen.Stats(), pool.Stats()
	if gs.Devices != nil {
		t.Errorf("generator Stats.Devices = %+v, want nil", gs.Devices)
	}
	if len(ps.Devices) != 1 {
		t.Errorf("1-member pool Stats.Devices has %d entries, want 1", len(ps.Devices))
	}
	ps.Devices = nil
	gj, pj := statsJSONWithoutHarvestAhead(t, gs), statsJSONWithoutHarvestAhead(t, ps)
	if gj != pj {
		t.Errorf("generator and 1-member pool Stats diverge\n gen:  %s\n pool: %s", gj, pj)
	}
}

// statsJSONWithoutHarvestAhead renders st with the fields zeroed that depend
// on how far the engine harvested ahead of the reader, which varies between
// runs of the same reads.
func statsJSONWithoutHarvestAhead(t *testing.T, st Stats) string {
	t.Helper()
	st.BitsHarvested, st.AggregateThroughputMbps, st.Latency64NS = 0, 0, 0
	for i := range st.Shards {
		s := &st.Shards[i]
		s.BitsHarvested, s.SimCycles, s.SimNS, s.ThroughputMbps, s.Latency64NS = 0, 0, 0, 0, 0
	}
	out, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestGeneratorMatchesSinglePoolRaw pins the Generator ≡ 1-member-Pool
// contract on the raw tier: under deterministic noise a sharded Generator and
// a 1-member Pool over the same profile serve byte-for-byte identical streams
// across interleaved Read, ReadRaw, ReadBits (including sub-word residues)
// and Uint64 calls.
func TestGeneratorMatchesSinglePoolRaw(t *testing.T) {
	gen := openQuick(t, WithShards(1))
	pool := openQuickPool(t, WithShards(1))
	runInterleaving(t, gen, pool, []servingOp{
		opRead(7),
		opReadBits(13), // leaves a sub-word residue: the next Read must drain it in order
		opRead(16),
		opUint64,
		opReadBits(3),
		opReadRaw(32),
		opReadBits(64),
		opRead(129),
	})
}

// TestGeneratorMatchesSinglePoolDRBG pins the same contract on the DRBG
// tier: seeds are harvested and screened identically, so the expanded
// streams — and the raw tier next to them — match byte for byte.
func TestGeneratorMatchesSinglePoolDRBG(t *testing.T) {
	policy := DRBGPolicy{ReseedInterval: 4, MaxRequestBytes: 32}
	gen := openQuick(t, WithShards(1), WithDRBG(policy))
	pool := openQuickPool(t, WithShards(1), WithDRBG(policy))
	runInterleaving(t, gen, pool, []servingOp{
		opRead(16),
		opReadBits(13),
		opUint64,
		opRead(100), // spans multiple MaxRequestBytes chunks and a reseed
		opReadRaw(24),
		opRead(8),
	})
}

// TestGeneratorMatchesSinglePoolHealth pins the contract with the online
// health tests attached and two shards per device: the startup sample, the
// monitor counters and the per-shard accounting match too.
func TestGeneratorMatchesSinglePoolHealth(t *testing.T) {
	gen := openQuick(t, WithShards(2), WithHealthTests(HealthTestPolicy{}))
	pool := openQuickPool(t, WithShards(2), WithHealthTests(HealthTestPolicy{}))
	runInterleaving(t, gen, pool, []servingOp{
		opRead(7),
		opReadBits(13),
		opReadRaw(64),
		opUint64,
		opRead(300),
	})
}

// TestGeneratorMatchesSinglePoolVonNeumann pins the contract behind a
// post-processing chain with two shards per device.
func TestGeneratorMatchesSinglePoolVonNeumann(t *testing.T) {
	gen := openQuick(t, WithShards(2), WithPostprocess(VonNeumann()))
	pool := openQuickPool(t, WithShards(2), WithPostprocess(VonNeumann()))
	runInterleaving(t, gen, pool, []servingOp{
		opRead(16),
		opReadBits(13),
		opUint64,
		opReadRaw(100),
		opReadBits(64),
	})
}

// TestTierCountersAdvanceOnlyOnSuccess pins the fixed accounting semantics:
// a read that returns (0, err) must leave the tier counters untouched, on
// both the lock-free fast path and the locked path.
func TestTierCountersAdvanceOnlyOnSuccess(t *testing.T) {
	t.Run("fast-path", func(t *testing.T) {
		g := openQuick(t, WithShards(1)).(*Generator)
		buf := make([]byte, 32)
		if _, err := g.ReadRaw(buf); err != nil {
			t.Fatal(err)
		}
		before := g.Stats()
		// Kill the engine out from under the facade: a read deep enough to
		// drain the shard rings' leftover words fails.
		g.members[0].eng.Close()
		if _, err := g.ReadRaw(make([]byte, 1<<20)); err == nil {
			t.Fatal("ReadRaw on a closed engine unexpectedly succeeded")
		}
		after := g.Stats()
		if after.TierRaw != before.TierRaw {
			t.Errorf("failed ReadRaw moved TierRaw: %+v -> %+v", before.TierRaw, after.TierRaw)
		}
		if after.BitsDelivered != before.BitsDelivered {
			t.Errorf("failed ReadRaw moved BitsDelivered: %d -> %d", before.BitsDelivered, after.BitsDelivered)
		}
	})
	t.Run("locked-path", func(t *testing.T) {
		// A health monitor forces the locked serving path.
		g := openQuick(t, WithShards(1), WithHealthTests(HealthTestPolicy{})).(*Generator)
		buf := make([]byte, 32)
		if _, err := g.ReadRaw(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := g.ReadBits(13); err != nil {
			t.Fatal(err)
		}
		before := g.Stats()
		if before.TierRaw.Reads != 2 || before.TierRaw.Bytes != 34 {
			// 32 packed bytes + ceil(13/8) = 2: ReadBits traffic must be
			// visible in the raw tier.
			t.Errorf("TierRaw = %+v, want {Reads:2 Bytes:34}", before.TierRaw)
		}
		g.members[0].eng.Close()
		if _, err := g.ReadRaw(make([]byte, 1<<20)); err == nil {
			t.Fatal("ReadRaw on a closed engine unexpectedly succeeded")
		}
		if _, err := g.ReadBits(1 << 23); err == nil {
			t.Fatal("ReadBits on a closed engine unexpectedly succeeded")
		}
		after := g.Stats()
		if after.TierRaw != before.TierRaw {
			t.Errorf("failed reads moved TierRaw: %+v -> %+v", before.TierRaw, after.TierRaw)
		}
		if after.BitsDelivered != before.BitsDelivered {
			t.Errorf("failed reads moved BitsDelivered: %d -> %d", before.BitsDelivered, after.BitsDelivered)
		}
	})
}

// poolDeliveryConservation asserts the pool aggregate equals the sum of the
// per-device deliveries — the invariant the old per-chunk DRBG accounting
// violated on partial failure.
func poolDeliveryConservation(t *testing.T, p *Pool, when string) {
	t.Helper()
	st := p.Stats()
	var sum int64
	for _, d := range st.Devices {
		sum += d.BitsDelivered
	}
	if sum != st.BitsDelivered {
		t.Errorf("%s: per-device deliveries sum to %d, aggregate says %d", when, sum, st.BitsDelivered)
	}
}

// TestPoolDRBGPartialFailureConservation pins the satellite-3 fix: a DRBG
// read whose later chunk fails (here: the reseed it needs cannot harvest)
// returns (0, err), and the chunks generated before the failure must not
// leak into the member's delivered count.
func TestPoolDRBGPartialFailureConservation(t *testing.T) {
	p := openQuickPool(t, WithShards(1),
		WithDRBG(DRBGPolicy{ReseedInterval: 2, MaxRequestBytes: 16}))
	buf := make([]byte, 16)
	if _, err := p.Read(buf); err != nil { // 1st generate of the interval
		t.Fatal(err)
	}
	poolDeliveryConservation(t, p, "after clean read")
	// Kill the member's engine: the 2nd chunk below falls due for a reseed,
	// whose seed harvest fails. A closed engine still serves the words its
	// shard rings had buffered, so drain them directly — below the pool's
	// accounting — until the engine errors.
	p.members[0].eng.Close()
	if _, err := p.members[0].eng.Read(make([]byte, 1<<20)); err == nil {
		t.Fatal("draining the closed engine unexpectedly succeeded")
	}
	big := make([]byte, 48) // 3 chunks; chunk 1 generates, chunk 2 needs the reseed
	n, err := p.Read(big)
	if err == nil || n != 0 {
		t.Fatalf("Read with a dead reseed source = (%d, %v), want (0, error)", n, err)
	}
	if !strings.Contains(err.Error(), "device") {
		t.Errorf("error %q does not identify the failing device", err)
	}
	poolDeliveryConservation(t, p, "after failed read")
	st := p.Stats()
	if st.BitsDelivered != int64(len(buf))*8 {
		t.Errorf("BitsDelivered = %d, want %d (only the clean read)", st.BitsDelivered, len(buf)*8)
	}
	if st.TierDRBG.Reads != 1 || st.TierDRBG.Bytes != int64(len(buf)) {
		t.Errorf("TierDRBG = %+v, want {Reads:1 Bytes:%d}", st.TierDRBG, len(buf))
	}
}

// TestStatsTierConservation pins the stats-conservation property: over any
// byte-aligned interleaving of successful reads, the tier byte counters
// account for exactly the delivered bits — on both facades.
func TestStatsTierConservation(t *testing.T) {
	ops := []servingOp{
		opRead(32),
		opReadBits(64),
		opReadRaw(16),
		opUint64,
		opRead(7),
		opReadRaw(9),
		opReadBits(24),
	}
	check := func(t *testing.T, src Source) {
		t.Helper()
		for _, op := range ops {
			op.run(t, src)
		}
		st := src.Stats()
		if got := (st.TierRaw.Bytes + st.TierDRBG.Bytes) * 8; got != st.BitsDelivered {
			t.Errorf("tier bytes account for %d bits, BitsDelivered = %d (TierRaw %+v, TierDRBG %+v)",
				got, st.BitsDelivered, st.TierRaw, st.TierDRBG)
		}
		if st.TierRaw.Reads+st.TierDRBG.Reads != int64(len(ops)) {
			t.Errorf("tier reads = %d+%d, want %d", st.TierRaw.Reads, st.TierDRBG.Reads, len(ops))
		}
	}
	t.Run("generator-raw", func(t *testing.T) { check(t, openQuick(t, WithShards(1))) })
	t.Run("generator-sequential", func(t *testing.T) { check(t, openQuick(t)) })
	t.Run("generator-drbg", func(t *testing.T) {
		check(t, openQuick(t, WithShards(1), WithDRBG(DRBGPolicy{})))
	})
	t.Run("pool-raw", func(t *testing.T) { check(t, openQuickPool(t, WithShards(1))) })
	t.Run("pool-drbg", func(t *testing.T) {
		check(t, openQuickPool(t, WithShards(1), WithDRBG(DRBGPolicy{})))
	})
}
