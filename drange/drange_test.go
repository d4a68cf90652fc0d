package drange

import (
	"bytes"
	"context"
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
		t.Errorf("sequential source reports %d shards, want 1", len(st.Shards))
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
// identification work: a freshly opened generator has issued zero reads and
// zero reduced-tRCD activations against the device — preparation writes data
// patterns only — while characterization performs hundreds of thousands.
func TestOpenSkipsIdentification(t *testing.T) {
	src := openQuick(t)
	g := src.(*Generator)
	st := g.dev.Stats()
	if st.Reads != 0 {
		t.Errorf("Open issued %d device reads; identification must not run on the open path", st.Reads)
	}
	if st.ReducedTRCDAct != 0 {
		t.Errorf("Open issued %d reduced-tRCD activations; profiling must not run on the open path", st.ReducedTRCDAct)
	}
	if _, err := src.ReadBits(64); err != nil {
		t.Fatal(err)
	}
	st = g.dev.Stats()
	if st.ReducedTRCDAct == 0 {
		t.Error("generation performed no reduced-tRCD activations; sampler not wired to the device")
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
		t.Error("two sequential opens of the same deterministic profile diverge")
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
	if _, err := g.EstimateThroughput(len(g.sels)+1, 20); err == nil {
		t.Error("bank count above the selection count accepted")
	}
	if _, err := g.EstimateThroughput(0, 20); err == nil {
		t.Error("zero banks accepted")
	}

	// Estimates resynchronise bank state: generation still works afterwards.
	buf := make([]byte, 64)
	if _, err := src.Read(buf); err != nil {
		t.Errorf("read after estimates failed: %v", err)
	}
}

func TestEstimatesRejectedWhileEngineActive(t *testing.T) {
	src := openQuick(t)
	g := src.(*Generator)
	eng, err := g.Engine(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.EstimateThroughput(1, 10); err == nil || !strings.Contains(err.Error(), "engine is active") {
		t.Errorf("EstimateThroughput during engine run: err = %v, want engine-active error", err)
	}
	if _, err := g.EstimateLatency64(); err == nil || !strings.Contains(err.Error(), "engine is active") {
		t.Errorf("EstimateLatency64 during engine run: err = %v, want engine-active error", err)
	}
	if _, err := g.EstimateEnergyPerBit(10); err == nil || !strings.Contains(err.Error(), "engine is active") {
		t.Errorf("EstimateEnergyPerBit during engine run: err = %v, want engine-active error", err)
	}
	buf := make([]byte, 64)
	if _, err := eng.Read(buf); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.EstimateThroughput(1, 10); err != nil {
		t.Errorf("EstimateThroughput after engine Close failed: %v", err)
	}

	sharded := openQuick(t, WithShards(2))
	if _, err := sharded.(*Generator).EstimateLatency64(); err == nil || !strings.Contains(err.Error(), "engine is active") {
		t.Errorf("estimate on a sharded Source: err = %v, want engine-active error", err)
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

// TestPostprocessedReadRawNoAlloc: once its buffers have grown, a raw-tier
// read through a von Neumann corrector allocates nothing — the stages reuse
// their carry and output buffers and the chain compacts its buffer in place.
func TestPostprocessedReadRawNoAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"sequential", []Option{WithPostprocess(VonNeumann())}},
		{"4 shards with DRBG", []Option{WithShards(4), WithDRBG(DRBGPolicy{}), WithPostprocess(VonNeumann())}},
	} {
		src := openQuick(t, tc.opts...)
		buf := make([]byte, 256)
		for i := 0; i < 4; i++ {
			if _, err := src.ReadRaw(buf); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := src.ReadRaw(buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: ReadRaw through von Neumann allocates %.2f times per read, want 0", tc.name, allocs)
		}
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

// legacyConfig mirrors the old test configuration for the deprecated shim.
func legacyConfig() Config {
	return Config{
		Manufacturer:       "A",
		Serial:             1,
		Deterministic:      true,
		Geometry:           quickGeometry(),
		ProfileRowsPerBank: 48,
		ProfileWordsPerRow: 8,
		ProfileBanks:       2,
		Samples:            300,
		Tolerance:          0.4,
		MaxBiasDelta:       0.02,
		ScreenIterations:   30,
	}
}

func TestLegacyNewShim(t *testing.T) {
	g, err := New(legacyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if len(g.Cells()) == 0 || len(g.Selections()) == 0 || g.Banks() == 0 {
		t.Fatal("legacy New returned an empty generator")
	}
	if g.Profile() == nil || g.Profile().Validate() != nil {
		t.Error("legacy New did not produce a valid profile")
	}
	buf := make([]byte, 256)
	if _, err := g.Read(buf); err != nil {
		t.Fatal(err)
	}
	checkBias(t, buf)

	// Stats must account generation time only, not the characterization
	// cycles New spent on the same controller: with those included the
	// apparent rate would be orders of magnitude below a real harvest rate.
	if st := g.Stats(); st.AggregateThroughputMbps < 1 {
		t.Errorf("legacy generator throughput = %v Mb/s; characterization cycles leaked into Stats", st.AggregateThroughputMbps)
	}

	eng, err := g.Engine(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Shards() == 0 {
		t.Fatal("legacy engine has no shards")
	}
	if _, err := eng.Read(buf); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.BitsDelivered != int64(len(buf)*8) || len(st.Shards) != eng.Shards() {
		t.Errorf("legacy engine stats = %+v", st)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := legacyConfig()
	cfg.Manufacturer = "Z"
	if _, err := New(cfg); err == nil {
		t.Error("unknown manufacturer accepted")
	}
	cfg = legacyConfig()
	cfg.ReducedTRCDNS = 50
	if _, err := New(cfg); err == nil {
		t.Error("tRCD above default accepted")
	}
	cfg = legacyConfig()
	cfg.Geometry.WordBits = 100
	if _, err := New(cfg); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestLegacyConfigSentinels(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Manufacturer != "A" || c.ReducedTRCDNS != 10.0 || c.Samples != 600 {
		t.Errorf("defaults = %+v", c)
	}
	p := Config{PaperIdentification: true}.withDefaults()
	if p.Samples != 1000 || p.Tolerance != 0.10 {
		t.Errorf("paper identification defaults = %+v", p)
	}
	// The documented legacy flaw the options API fixes: an explicit zero is
	// indistinguishable from unset and silently becomes the default.
	z := Config{MaxBiasDelta: 0}.withDefaults()
	if z.MaxBiasDelta != 0.02 {
		t.Errorf("legacy explicit zero bias bound = %v, want the documented sentinel default 0.02", z.MaxBiasDelta)
	}
}
