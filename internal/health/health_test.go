package health

import (
	"strings"
	"testing"
)

// prngBits produces a pseudorandom bitstream from a xorshift generator.
func prngBits(n int, seed uint64) []byte {
	bits := make([]byte, n)
	s := seed | 1
	for i := 0; i < n; {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		for b := 0; b < 64 && i < n; b++ {
			bits[i] = byte((s >> uint(b)) & 1)
			i++
		}
	}
	return bits
}

func mustMonitor(t *testing.T, cfg Config) *Monitor {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaultCutoffs(t *testing.T) {
	// C = 1 + ceil(30/H) per SP 800-90B §4.4.1 at alpha = 2^-30.
	if got := DefaultRCTCutoff(1); got != 31 {
		t.Errorf("DefaultRCTCutoff(1) = %d, want 31", got)
	}
	if got := DefaultRCTCutoff(8); got != 5 {
		t.Errorf("DefaultRCTCutoff(8) = %d, want 5", got)
	}
	if got := DefaultAPTWindow(1); got != 1024 {
		t.Errorf("DefaultAPTWindow(1) = %d, want 1024", got)
	}
	if got := DefaultAPTWindow(4); got != 512 {
		t.Errorf("DefaultAPTWindow(4) = %d, want 512", got)
	}
	// For a binary full-entropy source the critical count sits a bit above
	// the mean 512, around six standard deviations (sd = 16) out.
	c := DefaultAPTCutoff(1024, 1)
	if c <= 560 || c >= 700 {
		t.Errorf("DefaultAPTCutoff(1024, 1) = %d, want in (560, 700)", c)
	}
	// For 8-bit symbols (p = 1/256) over 512 symbols the expected count is 2;
	// the cutoff must be far smaller than the binary one.
	c8 := DefaultAPTCutoff(512, 8)
	if c8 < 3 || c8 > 30 {
		t.Errorf("DefaultAPTCutoff(512, 8) = %d, want a small count", c8)
	}
}

func TestRCTTripsAtCutoff(t *testing.T) {
	m := mustMonitor(t, Config{RCTCutoff: 5, MaxBiasDelta: -1})
	// Four identical bits: no trip.
	if v := m.Ingest([]byte{1, 1, 1, 1}); v != nil {
		t.Fatalf("tripped below the cutoff: %+v", v)
	}
	// The fifth identical bit reaches the cutoff.
	v := m.Ingest([]byte{1})
	if v == nil || v.Test != TestRCT {
		t.Fatalf("no RCT trip at the cutoff: %+v", v)
	}
	c := m.Counters()
	if c.RCTTrips != 1 || c.LongestRun != 5 {
		t.Errorf("counters = %+v, want 1 RCT trip, longest run 5", c)
	}
	if !strings.Contains(c.LastViolation, "rct") {
		t.Errorf("LastViolation = %q", c.LastViolation)
	}
	// A value change resets the run: at width 1 alternating bits never trip
	// the RCT (or the APT — exactly half the window matches the reference).
	// TestSymbolWidthCatchesPeriodicStructure shows wider symbols catch them.
	m2 := mustMonitor(t, Config{RCTCutoff: 5, MaxBiasDelta: -1})
	alt := make([]byte, 4096)
	for i := range alt {
		alt[i] = byte(i % 2)
	}
	if v := m2.Ingest(alt); v != nil {
		t.Errorf("width-1 tests tripped on alternating bits: %+v", v)
	}
	if got := m2.Counters().LongestRun; got != 1 {
		t.Errorf("longest run over alternating bits = %d, want 1", got)
	}
}

func TestSymbolWidthCatchesPeriodicStructure(t *testing.T) {
	// A 0110 stutter repeated forever: at width 1 the RCT run never exceeds
	// 2, but at width 4 every symbol is identical.
	stutter := make([]byte, 4*64)
	for i := 0; i < len(stutter); i += 4 {
		stutter[i+1], stutter[i+2] = 1, 1
	}
	m := mustMonitor(t, Config{SymbolBits: 4, RCTCutoff: 8, APTCutoff: 511, MaxBiasDelta: -1})
	v := m.Ingest(stutter)
	if v == nil || v.Test != TestRCT {
		t.Fatalf("width-4 RCT missed the 0110 stutter: %+v", v)
	}
	if !strings.Contains(v.Detail, "0x6") {
		t.Errorf("violation detail %q does not name the 0b0110 symbol", v.Detail)
	}
}

func TestAPTTripsOnHeavyHitter(t *testing.T) {
	// 8-bit symbols, symbol 0xAB appearing for ~1/4 of the window against an
	// expected 1/256.
	cfg := Config{SymbolBits: 8, APTWindow: 512, MaxBiasDelta: -1, RCTCutoff: 1 << 20}
	m := mustMonitor(t, cfg)
	cutoff := m.Config().APTCutoff
	var bits []byte
	filler := prngBits(8*3*512, 7)
	fi := 0
	for i := 0; i < 512; i++ {
		if i%4 == 0 {
			bits = append(bits, 1, 0, 1, 0, 1, 0, 1, 1) // 0xAB
		} else {
			bits = append(bits, filler[fi:fi+8]...)
			fi += 8
		}
	}
	v := m.Ingest(bits)
	if v == nil || v.Test != TestAPT {
		t.Fatalf("APT missed a symbol at 128/512 against cutoff %d: %+v", cutoff, v)
	}
	if m.Counters().APTTrips == 0 {
		t.Error("APT trip not counted")
	}
}

func TestBiasMonitorTrips(t *testing.T) {
	m := mustMonitor(t, Config{BiasWindowBits: 512, MaxBiasDelta: 0.2, RCTCutoff: 1 << 20, APTCutoff: 1 << 19, APTWindow: 1 << 20})
	// 80% ones: delta 0.3 > 0.2. Interleave to dodge the RCT/APT.
	bits := make([]byte, 512)
	for i := range bits {
		if i%5 != 0 {
			bits[i] = 1
		}
	}
	v := m.Ingest(bits)
	if v == nil || v.Test != TestBias {
		t.Fatalf("bias monitor missed an 80%% ones window: %+v", v)
	}
	if m.Counters().BiasTrips != 1 {
		t.Errorf("BiasTrips = %d, want 1", m.Counters().BiasTrips)
	}
}

func TestHealthyStreamNoTrips(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		m := mustMonitor(t, Config{SymbolBits: width})
		if v := m.Ingest(prngBits(1<<20, uint64(width)*977)); v != nil {
			t.Errorf("width %d tripped on a pseudorandom megabit: %+v", width, v)
		}
		c := m.Counters()
		if c.Trips() != 0 {
			t.Errorf("width %d counters = %+v, want zero trips", width, c)
		}
		if c.BitsTested != 1<<20 {
			t.Errorf("width %d BitsTested = %d", width, c.BitsTested)
		}
		if want := int64(1<<20) / int64(width); c.SymbolsTested != want {
			t.Errorf("width %d SymbolsTested = %d, want %d", width, c.SymbolsTested, want)
		}
	}
}

func TestIngestChunkingInvariant(t *testing.T) {
	// The same stream fed bit-by-bit and in one batch must trip identically.
	bits := append(prngBits(700, 3), make([]byte, 64)...) // a 64-run of zeros at the end
	whole := mustMonitor(t, Config{MaxBiasDelta: -1})
	vWhole := whole.Ingest(bits)
	chunked := mustMonitor(t, Config{MaxBiasDelta: -1})
	var vChunked *Violation
	for i := 0; i < len(bits) && vChunked == nil; i++ {
		vChunked = chunked.Ingest(bits[i : i+1])
	}
	if vWhole == nil || vChunked == nil {
		t.Fatalf("zero-run not caught: whole=%+v chunked=%+v", vWhole, vChunked)
	}
	if vWhole.Test != vChunked.Test || vWhole.Detail != vChunked.Detail {
		t.Errorf("chunked trip %+v differs from whole-batch trip %+v", vChunked, vWhole)
	}
}

func TestResetClearsWindows(t *testing.T) {
	m := mustMonitor(t, Config{RCTCutoff: 10, MaxBiasDelta: -1})
	if v := m.Ingest([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1}); v != nil {
		t.Fatalf("tripped below cutoff: %+v", v)
	}
	m.Reset()
	// Nine more identical bits after a reset stay below the cutoff.
	if v := m.Ingest([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1}); v != nil {
		t.Errorf("run survived Reset: %+v", v)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{SymbolBits: -1},
		{SymbolBits: MaxSymbolBits + 1},
		{RCTCutoff: 1},
		{APTCutoff: 4, APTWindow: 2},
		{BiasWindowBits: 1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestStartupSelfTest(t *testing.T) {
	// A pseudorandom sample passes.
	if v, err := Startup(prngBits(4096, 99), Config{}, 0); err != nil || v != nil {
		t.Fatalf("startup failed a pseudorandom sample: v=%+v err=%v", v, err)
	}
	// An all-ones sample fails, reported as a startup violation.
	ones := make([]byte, 4096)
	for i := range ones {
		ones[i] = 1
	}
	v, err := Startup(ones, Config{}, 0)
	if err != nil || v == nil || v.Test != TestStartup {
		t.Fatalf("startup accepted an all-ones sample: v=%+v err=%v", v, err)
	}
	// Too few bits for the NIST battery: the battery is skipped, the
	// continuous tests still run.
	if v, err := Startup(prngBits(64, 0xDEADBEEF), Config{}, 0); err != nil || v != nil {
		t.Fatalf("short clean sample rejected: v=%+v err=%v", v, err)
	}
	short := make([]byte, 64)
	for i := range short {
		short[i] = 1
	}
	if v, _ := Startup(short, Config{}, 0); v == nil {
		t.Fatal("64 identical bits passed the startup RCT")
	}
}

// countingSink records credit calls for the CreditSink tests.
type countingSink struct {
	bits  int64
	calls int
}

func (s *countingSink) CreditBits(n int64) {
	s.bits += n
	s.calls++
}

// TestCreditSinkCleanWindows: every bias window completing without a
// violation credits the sink with exactly the window size, and partial
// windows earn nothing.
func TestCreditSinkCleanWindows(t *testing.T) {
	m := mustMonitor(t, Config{BiasWindowBits: 512, MaxBiasDelta: 0.2, RCTCutoff: 1 << 20, APTCutoff: 1 << 19, APTWindow: 1 << 20})
	var sink countingSink
	m.SetCreditSink(&sink)
	// Three full windows plus a partial one.
	if v := m.Ingest(prngBits(3*512+100, 42)); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	if sink.calls != 3 || sink.bits != 3*512 {
		t.Errorf("credited %d bits over %d calls, want %d over 3", sink.bits, sink.calls, 3*512)
	}
	// The partial window is discarded by Reset and must never be credited.
	m.Reset()
	if v := m.Ingest(prngBits(512, 43)); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	if sink.bits != 4*512 {
		t.Errorf("credited %d bits after reset+window, want %d", sink.bits, 4*512)
	}
}

// TestCreditSinkTrippedWindowEarnsNothing: a window failing the bias check
// credits nothing.
func TestCreditSinkTrippedWindowEarnsNothing(t *testing.T) {
	m := mustMonitor(t, Config{BiasWindowBits: 512, MaxBiasDelta: 0.05, RCTCutoff: 1 << 20, APTCutoff: 1 << 19, APTWindow: 1 << 20})
	var sink countingSink
	m.SetCreditSink(&sink)
	bits := make([]byte, 512) // all zeros: maximal bias
	if v := m.Ingest(bits); v == nil {
		t.Fatal("all-zero window did not trip the bias monitor")
	}
	if sink.bits != 0 {
		t.Errorf("tripped window credited %d bits, want 0", sink.bits)
	}
}

// TestCreditSinkPackedMatchesUnpacked: IngestPacked credits identically to
// Ingest for the same stream.
func TestCreditSinkPackedMatchesUnpacked(t *testing.T) {
	cfg := Config{BiasWindowBits: 512, MaxBiasDelta: 0.2, RCTCutoff: 1 << 20, APTCutoff: 1 << 19, APTWindow: 1 << 20}
	bits := prngBits(4096, 7)
	packed := make([]byte, len(bits)/8)
	for i, b := range bits {
		packed[i/8] |= b << (7 - i%8)
	}

	mu := mustMonitor(t, cfg)
	var su countingSink
	mu.SetCreditSink(&su)
	if v := mu.Ingest(bits); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	mp := mustMonitor(t, cfg)
	var sp countingSink
	mp.SetCreditSink(&sp)
	if v := mp.IngestPacked(packed, len(bits)); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	if su.bits != sp.bits || su.calls != sp.calls {
		t.Errorf("packed credited %d/%d, unpacked %d/%d", sp.bits, sp.calls, su.bits, su.calls)
	}
	if su.bits != 4096 {
		t.Errorf("credited %d bits, want 4096", su.bits)
	}
}

// thermometer is a settable temperature probe that counts its readings.
type thermometer struct {
	tempC    float64
	readings int
}

func (th *thermometer) read() float64 {
	th.readings++
	return th.tempC
}

// TestTempDriftTripsAtWindowBoundary: the probe is read for the baseline at
// New and then once per completed bias window, after the bias check; a
// reading more than MaxTempDriftC from the baseline trips "temp" at that
// window boundary, earns no credit, and counts in Trips().
func TestTempDriftTripsAtWindowBoundary(t *testing.T) {
	th := &thermometer{tempC: 45}
	m := mustMonitor(t, Config{BiasWindowBits: 512, Temperature: th.read})
	var sink countingSink
	m.SetCreditSink(&sink)
	if th.readings != 1 {
		t.Fatalf("probe read %d times by New, want 1 (the baseline)", th.readings)
	}
	bits := prngBits(4*512, 0x9e3779b97f4a7c15)

	// Within the bound: a clean window.
	th.tempC = 45 + MaxTempDriftC
	if v := m.Ingest(bits[:512]); v != nil {
		t.Fatalf("drift of exactly the bound tripped: %v", v)
	}
	// Beyond it: nothing until the window completes, then a temp trip.
	th.tempC = 45 + MaxTempDriftC + 0.5
	if v := m.Ingest(bits[512 : 2*512-1]); v != nil || th.readings != 2 {
		t.Fatalf("mid-window: violation %v after %d probe readings, want none after 2", v, th.readings)
	}
	v := m.Ingest(bits[2*512-1 : 2*512])
	if v == nil || v.Test != TestTemp {
		t.Fatalf("hot window boundary returned %+v, want a temp trip", v)
	}
	c := m.Counters()
	if c.TempTrips != 1 || c.Trips() != 1 || !strings.HasPrefix(c.LastViolation, "temp: ") {
		t.Errorf("counters after the temp trip = %+v", c)
	}
	if c.CleanWindows != 1 || sink.bits != 512 {
		t.Errorf("clean windows %d, credited %d bits; want the one clean window only", c.CleanWindows, sink.bits)
	}
	if c.BiasDelta <= 0 || c.BiasDelta > 0.1 {
		t.Errorf("BiasDelta = %v, want the tripped window's small pseudorandom bias", c.BiasDelta)
	}

	// Reset keeps the baseline, so the device stays hot; Rebaseline moves
	// the baseline to the current temperature and the next window is clean.
	m.Reset()
	if v := m.Ingest(bits[2*512 : 3*512]); v == nil || v.Test != TestTemp {
		t.Fatalf("window after Reset returned %+v, want another temp trip", v)
	}
	m.Rebaseline()
	if v := m.Ingest(bits[3*512:]); v != nil {
		t.Fatalf("window after Rebaseline tripped: %v", v)
	}
	if c := m.Counters(); c.TempTrips != 2 || c.CleanWindows != 2 {
		t.Errorf("counters after Rebaseline = %+v, want 2 temp trips and 2 clean windows", c)
	}
}

// TestBiasCheckedBeforeTemp: a window that is both biased and hot reports
// the bias trip, and the probe is not read for it.
func TestBiasCheckedBeforeTemp(t *testing.T) {
	th := &thermometer{tempC: 45}
	m := mustMonitor(t, Config{BiasWindowBits: 512, MaxBiasDelta: 0.2, RCTCutoff: 1 << 20, APTCutoff: 1 << 19, APTWindow: 1 << 20, Temperature: th.read})
	th.tempC = 100
	v := m.Ingest(make([]byte, 512))
	if v == nil || v.Test != TestBias {
		t.Fatalf("biased hot window returned %+v, want the bias trip", v)
	}
	if c := m.Counters(); c.BiasTrips != 1 || c.TempTrips != 0 || c.BiasDelta != 0.5 || th.readings != 1 {
		t.Errorf("counters = %+v after %d probe readings", c, th.readings)
	}
}

// TestNilProbeNoTempSignal: without a probe the monitor never checks
// temperature, so Config{} behaves as a bias/RCT/APT monitor only.
func TestNilProbeNoTempSignal(t *testing.T) {
	m := mustMonitor(t, Config{BiasWindowBits: 512})
	if v := m.Ingest(prngBits(16*512, 0x9e3779b97f4a7c15)); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	if c := m.Counters(); c.TempTrips != 0 || c.CleanWindows != 16 {
		t.Errorf("counters = %+v, want 16 clean windows and no temp trips", c)
	}
	m.Rebaseline() // a no-op without a probe
	if v := m.Ingest(prngBits(512, 0xc2b2ae3d27d4eb4f)); v != nil {
		t.Fatalf("unexpected violation after Rebaseline: %v", v)
	}
}
