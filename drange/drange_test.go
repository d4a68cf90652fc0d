package drange

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	mrand "math/rand/v2"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/postproc"
)

// quickGeometry keeps facade tests fast: a small device with every
// structural feature present.
func quickGeometry() Geometry {
	return Geometry{
		Banks:        4,
		RowsPerBank:  128,
		ColsPerRow:   2048,
		SubarrayRows: 64,
		WordBits:     256,
	}
}

// quickOptions characterizes a small region with deterministic noise so the
// whole suite shares one cached profile.
func quickOptions() []Option {
	return []Option{
		WithManufacturer("A"),
		WithSerial(1),
		WithDeterministic(true),
		WithGeometry(quickGeometry()),
		WithProfilingRegion(64, 8, 4),
		WithSamples(400),
		WithTolerance(0.4),
		WithMaxBiasDelta(0.02),
		WithScreenIterations(30),
	}
}

var (
	quickOnce sync.Once
	quickProf *Profile
	quickErr  error
)

// quickProfile characterizes the shared test device exactly once; every test
// that needs a generator Opens it from this profile — the workflow the
// redesign exists for.
func quickProfile(t *testing.T) *Profile {
	t.Helper()
	quickOnce.Do(func() {
		quickProf, quickErr = Characterize(context.Background(), quickOptions()...)
	})
	if quickErr != nil {
		t.Fatal(quickErr)
	}
	return quickProf
}

func openQuick(t *testing.T, opts ...Option) Source {
	t.Helper()
	src, err := Open(context.Background(), quickProfile(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

func checkBias(t *testing.T, buf []byte) {
	t.Helper()
	bits := entropy.BytesToBits(buf)
	bias, err := entropy.Bias(bits)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bias-0.5) > 0.06 {
		t.Errorf("output bias %v, want ~0.5", bias)
	}
}

func TestCharacterizeProducesSealedProfile(t *testing.T) {
	p := quickProfile(t)
	if p.Version != ProfileVersion {
		t.Errorf("profile version = %d, want %d", p.Version, ProfileVersion)
	}
	if p.Manufacturer != "A" || p.Serial != 1 {
		t.Errorf("profile identity = %s/%d, want A/1", p.Manufacturer, p.Serial)
	}
	if !strings.HasPrefix(p.Checksum, "sha256:") {
		t.Errorf("profile checksum %q lacks algorithm prefix", p.Checksum)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("fresh profile fails validation: %v", err)
	}
	if len(p.Cells) == 0 || len(p.Selections) == 0 {
		t.Fatalf("profile has %d cells, %d selections; want both non-empty", len(p.Cells), len(p.Selections))
	}
	if p.Characterization.Pattern == "" {
		t.Error("profile records no data pattern")
	}
	if _, err := parsePattern(p.Characterization.Pattern); err != nil {
		t.Error(err)
	}
	for i := 1; i < len(p.Selections); i++ {
		if p.Selections[i].Bits() > p.Selections[i-1].Bits() {
			t.Errorf("selections not sorted by descending data rate at %d", i)
		}
	}
	if p.BitsPerIteration() <= 0 || p.Banks() == 0 {
		t.Errorf("profile reports %d bits/iteration over %d banks", p.BitsPerIteration(), p.Banks())
	}
	if len(p.DensityHistograms()) == 0 {
		t.Error("no density histograms")
	}
}

func TestOpenEndToEnd(t *testing.T) {
	src := openQuick(t)
	buf := make([]byte, 512)
	n, err := src.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("short read %d", n)
	}
	checkBias(t, buf)

	v1, err := src.Uint64()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := src.Uint64()
	if err != nil {
		t.Fatal(err)
	}
	if v1 == v2 {
		t.Error("consecutive Uint64 outputs identical")
	}

	raw, err := src.ReadBits(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 64 {
		t.Fatalf("ReadBits returned %d bits", len(raw))
	}

	st := src.Stats()
	if st.BitsDelivered != int64(len(buf)*8+64+128) {
		t.Errorf("BitsDelivered = %d, want %d", st.BitsDelivered, len(buf)*8+64+128)
	}
	if st.AggregateThroughputMbps <= 0 || st.Latency64NS <= 0 {
		t.Errorf("stats = %+v, want positive throughput and latency", st)
	}
	if len(st.Shards) != 1 {
		t.Errorf("default source reports %d shards, want 1", len(st.Shards))
	}

	if _, err := src.Read(nil); err != nil {
		t.Errorf("zero-length read errored: %v", err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Read(buf); err == nil {
		t.Error("read after Close succeeded")
	}
}

// TestOpenSkipsIdentification is the acceptance check that Open performs no
// identification work. The engine harvests ahead of the reader, but at most
// one ring (32 words) plus one batch (256 bits) — the core.EngineConfig
// defaults — before its shard blocks: about a thousand reads and reduced-tRCD
// activations on this profile, where characterization performs hundreds of
// thousands.
func TestOpenSkipsIdentification(t *testing.T) {
	src := openQuick(t)
	g := src.(*Generator)
	dev := g.members[0].dev
	const aheadBits = 32*64 + 256
	iters := (aheadBits+g.Profile().BitsPerIteration()-1)/g.Profile().BitsPerIteration() + 1
	// Every core-loop iteration reads, and activates, two words per bank.
	maxOps := int64(iters * 2 * g.Banks())
	st := dev.Stats()
	if st.Reads > maxOps {
		t.Errorf("Open issued %d device reads, more than the %d of one harvest-ahead ring; identification must not run on the open path", st.Reads, maxOps)
	}
	if st.ReducedTRCDAct > maxOps {
		t.Errorf("Open issued %d reduced-tRCD activations, more than the %d of one harvest-ahead ring; profiling must not run on the open path", st.ReducedTRCDAct, maxOps)
	}
	if _, err := src.ReadBits(64); err != nil {
		t.Fatal(err)
	}
	st = dev.Stats()
	if st.ReducedTRCDAct == 0 {
		t.Error("generation performed no reduced-tRCD activations; engine not wired to the device")
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	p := quickProfile(t)
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Checksum != p.Checksum {
		t.Errorf("checksum changed across round trip: %q vs %q", loaded.Checksum, p.Checksum)
	}
	if len(loaded.Cells) != len(p.Cells) || len(loaded.Selections) != len(p.Selections) {
		t.Fatalf("round trip lost cells/selections: %d/%d vs %d/%d",
			len(loaded.Cells), len(loaded.Selections), len(p.Cells), len(p.Selections))
	}
	for i := range p.Selections {
		a, b := p.Selections[i], loaded.Selections[i]
		if a.Bank != b.Bank || a.Word1.Row != b.Word1.Row || a.Word2.Row != b.Word2.Row ||
			len(a.Word1.Cols) != len(b.Word1.Cols) || len(a.Word2.Cols) != len(b.Word2.Cols) {
			t.Errorf("selection %d changed across round trip: %+v vs %+v", i, a, b)
		}
	}

	// Deterministic noise: a generator opened from the reloaded profile
	// produces byte-identical output to one opened from the original.
	src1 := openQuick(t)
	src2, err := Open(context.Background(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	buf1 := make([]byte, 256)
	buf2 := make([]byte, 256)
	if _, err := src1.Read(buf1); err != nil {
		t.Fatal(err)
	}
	if _, err := src2.Read(buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1, buf2) {
		t.Error("reloaded profile produces different bytes than the original")
	}
}

func TestProfileMismatchesRejected(t *testing.T) {
	p := quickProfile(t)
	ctx := context.Background()

	if _, err := Open(ctx, p, WithSerial(2)); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("wrong serial accepted (err=%v)", err)
	}
	if _, err := Open(ctx, p, WithManufacturer("B")); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("wrong manufacturer accepted (err=%v)", err)
	}
	g := quickGeometry()
	g.Banks = 8
	if _, err := Open(ctx, p, WithGeometry(g)); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("wrong geometry accepted (err=%v)", err)
	}

	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(string(data), `"serial": 1`, `"serial": 2`, 1)
	if corrupted == string(data) {
		t.Fatal("corruption did not apply; test needs updating")
	}
	if _, err := DecodeProfile([]byte(corrupted)); err == nil || !strings.Contains(err.Error(), "integrity") {
		t.Errorf("corrupted profile accepted (err=%v)", err)
	}

	if _, err := DecodeProfile(data[:len(data)/2]); err == nil {
		t.Error("truncated profile accepted")
	}

	future := *p
	future.Version = ProfileVersion + 1
	if err := future.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, &future); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Errorf("future-version profile accepted (err=%v)", err)
	}

	tampered := *p
	tampered.Serial++
	if _, err := Open(ctx, &tampered); err == nil || !strings.Contains(err.Error(), "integrity") {
		t.Errorf("tampered unsealed profile accepted (err=%v)", err)
	}
}

// TestShardedSourceMatchesEngine is the acceptance check that the redesigned
// Source is a transparent facade: Open(profile, WithShards(4)) produces the
// same deterministic byte stream as the sharded core.Engine built directly
// from the profile's selections over an identical device.
func TestShardedSourceMatchesEngine(t *testing.T) {
	p := quickProfile(t)
	ctx := context.Background()

	src, err := Open(ctx, p, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	sels, err := coreSelections(p.Cells, p.Selections)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := parsePattern(p.Characterization.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := newDevice(p.Manufacturer, p.Serial, true, p.Geometry)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ctx, dev, sels, core.EngineConfig{
		Shards: 4,
		TRNG:   core.TRNGConfig{TRCDNS: p.Characterization.TRCDNS, Pattern: pat},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	want := make([]byte, 256)
	got := make([]byte, 256)
	if _, err := eng.Read(want); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Read(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("sharded Source bytes differ from the core Engine's")
	}
	checkBias(t, got)

	st := src.Stats()
	if st.BitsDelivered != int64(len(got)*8) {
		t.Errorf("BitsDelivered = %d, want %d", st.BitsDelivered, len(got)*8)
	}
	if len(st.Shards) != src.(*Generator).Shards() || len(st.Shards) == 0 {
		t.Errorf("got %d shard stats for %d shards", len(st.Shards), src.(*Generator).Shards())
	}
	if st.AggregateThroughputMbps <= 0 || st.Latency64NS <= 0 {
		t.Errorf("stats = %+v, want positive throughput and latency", st)
	}
}

func TestSequentialOpenDeterministic(t *testing.T) {
	a := openQuick(t)
	b := openQuick(t)
	b1 := make([]byte, 128)
	b2 := make([]byte, 128)
	if _, err := a.Read(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("two default opens of the same deterministic profile diverge")
	}
}

// TestDefaultOpenStreamPinned pins the bytes a Source opened with no shard
// option serves: the SHA-256 of 32 KiB, a 13-bit ReadBits residue and 32 KiB
// more, on the raw tier, the DRBG tier and the raw tier through von Neumann.
// The digests date from when the default Source ran one core.TRNG on a
// single controller; the 1-shard engine serves the same stream.
func TestDefaultOpenStreamPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
		raw  bool
		want string
	}{
		{"raw", nil, false, "6e1056b5ca3bb62bac7427ccbd8903f6c5b362b30272da27fc5af1094835cae7"},
		{"drbg", []Option{WithDRBG(DRBGPolicy{})}, false, "06789475bb068b48308affd9491e4ed1b8efb4527647325d87452ee99a40f92e"},
		{"von-neumann-raw", []Option{WithPostprocess(VonNeumann())}, true, "e028b5628d2c987935f614043f506545ee7b22b2e81a5462c7ea63cca7f3b747"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := openQuick(t, tc.opts...)
			read := src.Read
			if tc.raw {
				read = src.ReadRaw
			}
			h := sha256.New()
			buf := make([]byte, 32<<10)
			if _, err := read(buf); err != nil {
				t.Fatal(err)
			}
			h.Write(buf)
			bits, err := src.ReadBits(13)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(bits)
			if _, err := read(buf); err != nil {
				t.Fatal(err)
			}
			h.Write(buf)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("default stream digest = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestDefaultSourceConcurrentReads drives the default Source's lock-free
// read path and Stats from several goroutines under the race detector: the
// harvest runs on the engine's goroutine, so every reader shares it.
func TestDefaultSourceConcurrentReads(t *testing.T) {
	src := openQuick(t)
	const readers, reads, size = 4, 8, 256
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, size)
			for i := 0; i < reads; i++ {
				if _, err := src.Read(buf); err != nil {
					t.Errorf("concurrent read: %v", err)
					return
				}
				src.Stats()
			}
		}()
	}
	wg.Wait()
	st := src.Stats()
	if want := int64(readers * reads * size * 8); st.BitsDelivered != want || st.TierRaw.Bytes*8 != want {
		t.Errorf("BitsDelivered = %d, TierRaw = %+v; want %d bits", st.BitsDelivered, st.TierRaw, want)
	}
}

func TestGeneratorEstimates(t *testing.T) {
	src := openQuick(t)
	g := src.(*Generator)
	res, err := g.EstimateThroughput(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputMbps <= 0 {
		t.Errorf("throughput estimate %v, want positive", res.ThroughputMbps)
	}
	lat, err := g.EstimateLatency64()
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Errorf("latency estimate %v, want positive", lat)
	}
	nj, err := g.EstimateEnergyPerBit(50)
	if err != nil {
		t.Fatal(err)
	}
	if nj <= 0 || nj > 100 {
		t.Errorf("energy estimate %v nJ/bit, want small positive value", nj)
	}

	// Out-of-range bank counts error instead of silently clamping.
	if _, err := g.EstimateThroughput(g.Banks()+1, 20); err == nil {
		t.Error("bank count above the selection count accepted")
	}
	if _, err := g.EstimateThroughput(0, 20); err == nil {
		t.Error("zero banks accepted")
	}

	buf := make([]byte, 64)
	if _, err := src.Read(buf); err != nil {
		t.Errorf("read after estimates failed: %v", err)
	}
}

// TestEstimatesRunOnTwin pins the estimators to a private simulated twin of
// the device: they work on a sharded Generator and agree with the default
// one, they equal the values the estimators gave when they drove the live
// device, and estimating mid-stream leaves the served bytes untouched.
func TestEstimatesRunOnTwin(t *testing.T) {
	type estimates struct {
		tp1, tpAll  Throughput
		lat64, lat1 float64
		nj          float64
	}
	estimate := func(t *testing.T, g *Generator) estimates {
		t.Helper()
		var e estimates
		var err error
		if e.tp1, err = g.EstimateThroughput(1, 100); err != nil {
			t.Fatal(err)
		}
		if e.tpAll, err = g.EstimateThroughput(g.Banks(), 100); err != nil {
			t.Fatal(err)
		}
		if e.lat64, err = g.EstimateLatency64(); err != nil {
			t.Fatal(err)
		}
		if e.lat1, err = g.EstimateLatency(1, 64); err != nil {
			t.Fatal(err)
		}
		if e.nj, err = g.EstimateEnergyPerBit(200); err != nil {
			t.Fatal(err)
		}
		return e
	}

	def := estimate(t, openQuick(t).(*Generator))
	// The values the estimators produced on the live device of this profile,
	// before they moved to the twin.
	want := estimates{
		tp1:   Throughput{Banks: 1, BitsPerIteration: 5, NSPerIteration: 134.925, ThroughputMbps: 37.05762460626274},
		tpAll: Throughput{Banks: 4, BitsPerIteration: 18, NSPerIteration: 238.45625, ThroughputMbps: 75.48554504232956},
		lat64: 925.625,
		lat1:  1747.5,
		nj:    1.4020867361111289,
	}
	if def != want {
		t.Errorf("estimates = %+v, want %+v", def, want)
	}
	if sharded := estimate(t, openQuick(t, WithShards(2)).(*Generator)); sharded != def {
		t.Errorf("sharded Generator estimates %+v, default %+v", sharded, def)
	}

	// Estimating mid-stream must not perturb the live device: the reads that
	// follow match an identical Source that never estimated.
	est, ref := openQuick(t), openQuick(t)
	got, refBuf := make([]byte, 256), make([]byte, 256)
	for i := 0; i < 2; i++ {
		if _, err := est.Read(got); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Read(refBuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, refBuf) {
			t.Fatalf("read %d: a Source that estimated serves different bytes than one that did not", i)
		}
		estimate(t, est.(*Generator))
	}
}

// TestServedRateMatchesFigure8 checks that a Source serves at the rate the
// Figure 8 estimator reports for its banks: both run the same Algorithm 2
// loop, which overlaps the banks' activations on the one controller, so an
// iteration over every bank takes well under the sum of one-bank
// iterations.
func TestServedRateMatchesFigure8(t *testing.T) {
	src := openQuick(t)
	if _, err := src.Read(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	g := src.(*Generator)
	est, err := g.EstimateThroughput(g.Banks(), 200)
	if err != nil {
		t.Fatal(err)
	}
	one, err := g.EstimateThroughput(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if g.Banks() < 4 || est.NSPerIteration >= 2*one.NSPerIteration {
		t.Errorf("an iteration over %d banks takes %.1f ns against %.1f ns for one bank: want activations overlapped across at least 4 banks (under 2x)", g.Banks(), est.NSPerIteration, one.NSPerIteration)
	}
	st := src.Stats()
	if len(st.Shards) != 1 {
		t.Fatalf("default Source runs %d shards, want 1", len(st.Shards))
	}
	served := st.AggregateThroughputMbps
	t.Logf("served %.2f simulated Mb/s, Figure 8 estimate %.2f Mb/s", served, est.ThroughputMbps)
	if math.Abs(served-est.ThroughputMbps) > 0.005*est.ThroughputMbps {
		t.Errorf("1-shard Source serves %.2f simulated Mb/s, Figure 8 estimate %.2f Mb/s: want within 0.5%%", served, est.ThroughputMbps)
	}
}

func TestPostprocessChain(t *testing.T) {
	raw := openQuick(t)
	vn := openQuick(t, WithPostprocess(VonNeumann()))

	// Identical deterministic devices: the corrected stream must equal the
	// von Neumann corrector applied to the raw stream.
	rawBits, err := raw.ReadBits(basePostBatch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := postproc.VonNeumann{}.Process(rawBits)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 100 {
		t.Fatalf("von Neumann kept only %d of %d bits; device too small for this test", len(want), basePostBatch)
	}
	got, err := vn.ReadBits(100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[:100]) {
		t.Error("post-processed stream differs from corrector applied to raw stream")
	}

	if _, err := Open(context.Background(), quickProfile(t), WithPostprocess(XORDecimator(1))); err == nil {
		t.Error("invalid decimation factor accepted at Open")
	}
}

// TestPostprocessedReadRawNoAlloc: once its buffers have grown, a
// steady-state read allocates nothing in any serving configuration — the
// lock-free raw path, the monitored and DRBG tiers, a von Neumann chain
// (whose stages reuse their carry and output buffers while the chain compacts
// its buffer in place), multi-device pools and OS-entropy device noise (whose
// buffer is refilled in place).
func TestPostprocessedReadRawNoAlloc(t *testing.T) {
	for _, tc := range []struct {
		name    string
		devices int // 0 opens a Generator, n > 0 an n-device pool
		opts    []Option
		raw     bool
	}{
		{"default", 0, nil, false},
		{"4 shards", 0, []Option{WithShards(4)}, false},
		{"health tests", 0, []Option{WithHealthTests(HealthTestPolicy{})}, false},
		{"DRBG Read", 0, []Option{WithDRBG(DRBGPolicy{})}, false},
		{"DRBG ReadRaw", 0, []Option{WithDRBG(DRBGPolicy{})}, true},
		{"von Neumann", 0, []Option{WithPostprocess(VonNeumann())}, true},
		{"3-device pool", 3, nil, false},
		{"pool with health tests", 3, []Option{WithHealthTests(HealthTestPolicy{})}, false},
		{"physical noise", 0, []Option{WithDeterministic(false)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var src Source
			if tc.devices == 0 {
				src = openQuick(t, tc.opts...)
			} else {
				pool, err := OpenPool(context.Background(), poolProfiles(t, tc.devices), tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { pool.Close() })
				src = pool
			}
			read := src.Read
			if tc.raw {
				read = src.ReadRaw
			}
			buf := make([]byte, 256)
			for i := 0; i < 4; i++ {
				if _, err := read(buf); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := read(buf); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state read allocates %.2f times per read, want 0", allocs)
			}
		})
	}
}

// TestPostprocessMultiStageStreaming checks that a multi-stage chain carries
// sub-block remainders between batches: the streamed output must equal the
// whole-stream composition of the correctors over the raw bits consumed, with
// no bits truncated at batch boundaries.
func TestPostprocessMultiStageStreaming(t *testing.T) {
	chain, err := newPostChain([]Corrector{VonNeumann(), SHA256Conditioner(1024)})
	if err != nil {
		t.Fatal(err)
	}
	// A deterministic synthetic raw source that records everything it hands
	// out; the von Neumann stage's variable-length output exercises the
	// carry path of the SHA stage on every batch.
	var consumed []byte
	state := uint64(1)
	rawPacked := func(dst []byte) error {
		for i := range dst {
			var b byte
			for j := 0; j < 8; j++ {
				state = state*6364136223846793005 + 1442695040888963407
				bit := byte(state >> 63)
				consumed = append(consumed, bit)
				b = b<<1 | bit
			}
			dst[i] = b
		}
		return nil
	}
	got, err := chain.readBits(512, rawPacked)
	if err != nil {
		t.Fatal(err)
	}

	vn, err := postproc.VonNeumann{}.Process(consumed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := postproc.SHA256Conditioner{InputBlockBits: 1024}.Process(vn)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 512 {
		t.Fatalf("whole-stream composition yielded only %d bits", len(want))
	}
	if !bytes.Equal(got, want[:512]) {
		t.Error("streamed multi-stage output differs from whole-stream composition; batch boundaries truncated bits")
	}
}

func TestRandSourceAdapter(t *testing.T) {
	src := openQuick(t)
	rng := mrand.New(RandSource(src))
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		seen[rng.IntN(10)] = true
	}
	if len(seen) != 10 {
		t.Errorf("rand/v2 adapter produced only %d of 10 values", len(seen))
	}
	src.Close()
	defer func() {
		if recover() == nil {
			t.Error("RandSource did not panic on a closed Source")
		}
	}()
	rng.Uint64()
}

func TestOptionPrecedenceAndScoping(t *testing.T) {
	o := buildOptions([]Option{WithPaperIdentification(), WithSamples(200), WithMaxBiasDelta(0)})
	p := o.charParams()
	if p.Samples != 200 {
		t.Errorf("explicit WithSamples overridden by paper preset: %d", p.Samples)
	}
	if p.Tolerance != 0.10 || p.ScreenIterations != 100 {
		t.Errorf("paper preset not applied: %+v", p)
	}
	if p.MaxBiasDelta != 0 {
		t.Errorf("explicit zero bias bound replaced by default: %v", p.MaxBiasDelta)
	}

	ctx := context.Background()
	if _, err := Characterize(ctx, WithShards(2)); err == nil {
		t.Error("WithShards accepted by Characterize")
	}
	if _, err := Characterize(ctx, WithPostprocess(VonNeumann())); err == nil {
		t.Error("WithPostprocess accepted by Characterize")
	}
	if _, err := Open(ctx, quickProfile(t), WithSamples(100)); err == nil {
		t.Error("identification option accepted by Open")
	}
	if _, err := Open(ctx, quickProfile(t), WithShards(-1)); err == nil {
		t.Error("negative shard count accepted by Open")
	}
}

// TestExplicitZeroBiasBound exercises the sentinel fix end to end: a zero
// bias bound must reach identification (admitting only exactly-50% cells)
// instead of silently becoming the 2% default.
func TestExplicitZeroBiasBound(t *testing.T) {
	profile, err := Characterize(context.Background(),
		WithManufacturer("A"),
		WithSerial(1),
		WithDeterministic(true),
		WithGeometry(quickGeometry()),
		WithProfilingRegion(32, 4, 1),
		WithSamples(200),
		WithTolerance(0.4),
		WithScreenIterations(30),
		WithMaxBiasDelta(0),
	)
	if err != nil {
		if !strings.Contains(err.Error(), "no RNG cells") {
			t.Fatalf("unexpected characterization error: %v", err)
		}
		return // the strict bound legitimately rejected every cell
	}
	if profile.Characterization.MaxBiasDelta != 0 {
		t.Errorf("profile records bias bound %v, want explicit 0", profile.Characterization.MaxBiasDelta)
	}
	for _, c := range profile.Cells {
		if c.FailProbability != 0.5 {
			t.Errorf("cell %+v passed a zero bias bound with Fprob %v", c, c.FailProbability)
		}
	}
}

func TestCharacterizeHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Characterize(ctx, quickOptions()...); err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("cancelled characterization returned %v", err)
	}
}

func TestNISTSmokeTest(t *testing.T) {
	src := openQuick(t)
	res, err := src.(*Generator).RunNIST(20000, 0)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(name string) NISTResult {
		for _, r := range res {
			if r.Name == name {
				return r
			}
		}
		t.Fatalf("test %q missing from NIST results", name)
		return NISTResult{}
	}
	if mono := lookup("monobit"); !mono.Pass {
		t.Errorf("monobit failed on D-RaNGe output (p=%v)", mono.PValue)
	}
	if runs := lookup("runs"); !runs.Pass {
		t.Errorf("runs failed on D-RaNGe output (p=%v)", runs.PValue)
	}
}

// TestCharacterizeRejectsBadConfig: an unknown manufacturer, an activation
// latency above the default tRCD and an invalid word width all fail
// characterization instead of producing a profile.
func TestCharacterizeRejectsBadConfig(t *testing.T) {
	ctx := context.Background()
	base := []Option{
		WithSerial(1),
		WithDeterministic(true),
		WithProfilingRegion(48, 8, 2),
		WithSamples(300),
		WithTolerance(0.4),
		WithScreenIterations(30),
	}
	badGeom := quickGeometry()
	badGeom.WordBits = 100
	for name, opts := range map[string][]Option{
		"unknown manufacturer": {WithManufacturer("Z"), WithGeometry(quickGeometry())},
		"tRCD above default":   {WithManufacturer("A"), WithGeometry(quickGeometry()), WithTRCD(50)},
		"invalid geometry":     {WithManufacturer("A"), WithGeometry(badGeom)},
	} {
		if _, err := Characterize(ctx, append(append([]Option{}, base...), opts...)...); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
