package drange

import (
	"bytes"
	"context"
	"math/bits"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/memctrl"
)

func TestBackendRegistry(t *testing.T) {
	names := Backends()
	for _, want := range []string{"sim", "replay", "faulty"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in backend %q not registered (have %v)", want, names)
		}
	}
	if err := RegisterBackend("sim", openSimBackend); err == nil {
		t.Error("duplicate backend registration accepted")
	}
	if err := RegisterBackend("", openSimBackend); err == nil {
		t.Error("empty backend name accepted")
	}
	if err := RegisterBackend("nilfactory", nil); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := OpenBackend("no-such-backend", BackendParams{}); err == nil || !strings.Contains(err.Error(), "no-such-backend") {
		t.Errorf("unknown backend error = %v, want it to name the backend", err)
	}
	if _, err := OpenBackend("sim", BackendParams{Manufacturer: "A", Options: map[string]string{"bogus": "1"}}); err == nil {
		t.Error("sim backend accepted an unknown option")
	}
}

// TestNoInternalTypesInExportedAPI is the acceptance gate that the public
// Device contract really decouples the facade: a custom backend written
// purely against package drange (no internal imports) must drive the whole
// pipeline. countingDevice also proves WithDevice wiring end to end.
type countingDevice struct {
	Device
	reads atomic.Int64
}

func (c *countingDevice) ReadWord(bank, wordIdx int) ([]uint64, error) {
	c.reads.Add(1)
	return c.Device.ReadWord(bank, wordIdx)
}

func TestWithDeviceCustomBackend(t *testing.T) {
	profile := quickProfile(t)
	inner, err := OpenBackend("sim", BackendParams{
		Manufacturer:  profile.Manufacturer,
		Serial:        profile.Serial,
		Deterministic: true,
		Geometry:      profile.Geometry,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := &countingDevice{Device: inner}
	src, err := Open(context.Background(), profile, WithDevice(dev))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	buf := make([]byte, 64)
	if _, err := src.Read(buf); err != nil {
		t.Fatal(err)
	}
	if dev.reads.Load() == 0 {
		t.Error("generation did not flow through the WithDevice device")
	}
	if g := src.(*Generator); g.Backend() != "custom" {
		t.Errorf("Backend() = %q, want custom", g.Backend())
	}

	// The same bytes must come out of the plain sim path: a passthrough
	// wrapper is behaviour-neutral.
	ref, err := Open(context.Background(), profile)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refBuf := make([]byte, 64)
	if _, err := ref.Read(refBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, refBuf) {
		t.Error("WithDevice passthrough wrapper changed the byte stream")
	}
}

func TestWithDeviceMismatchRejected(t *testing.T) {
	profile := quickProfile(t)
	wrong, err := OpenBackend("sim", BackendParams{
		Manufacturer:  profile.Manufacturer,
		Serial:        profile.Serial + 999,
		Deterministic: true,
		Geometry:      profile.Geometry,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(context.Background(), profile, WithDevice(wrong)); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("Open accepted a device with the wrong serial (err=%v)", err)
	}
	if _, err := Open(context.Background(), profile, WithDevice(wrong), WithBackend("sim", nil)); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("WithDevice+WithBackend accepted together (err=%v)", err)
	}
}

func TestReplayRecordReplayByteIdentical(t *testing.T) {
	profile := quickProfile(t)
	log := filepath.Join(t.TempDir(), "ops.jsonl")

	record := func() []byte {
		src, err := Open(context.Background(), profile, WithBackend("replay", map[string]string{
			"mode": "record", "path": log,
		}))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 128)
		if _, err := src.Read(buf); err != nil {
			t.Fatal(err)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	recorded := record()

	replayed := func() []byte {
		src, err := Open(context.Background(), profile, WithBackend("replay", map[string]string{
			"mode": "replay", "path": log,
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		buf := make([]byte, 128)
		if _, err := src.Read(buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}()
	if !bytes.Equal(recorded, replayed) {
		t.Fatal("replayed run is not byte-identical to the recorded run")
	}

	// Reading past the recorded operations must fail loudly, not invent
	// bits.
	src, err := Open(context.Background(), profile, WithBackend("replay", map[string]string{
		"mode": "replay", "path": log,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	big := make([]byte, 4096)
	if _, err := src.Read(big); err == nil || !strings.Contains(err.Error(), "replay log exhausted") {
		t.Errorf("overreading a replay log: err = %v, want log-exhausted failure", err)
	}
}

func TestReplayRejectsWrongIdentity(t *testing.T) {
	profile := quickProfile(t)
	log := filepath.Join(t.TempDir(), "ops.jsonl")
	src, err := Open(context.Background(), profile, WithBackend("replay", map[string]string{
		"mode": "record", "path": log,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.ReadBits(64); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBackend("replay", BackendParams{
		Serial: profile.Serial + 1, Geometry: profile.Geometry,
		Options: map[string]string{"mode": "replay", "path": log},
	}); err == nil || !strings.Contains(err.Error(), "serial") {
		t.Errorf("replay of another device's log: err = %v, want serial mismatch", err)
	}
	if _, err := OpenBackend("replay", BackendParams{Options: map[string]string{"mode": "replay"}}); err == nil {
		t.Error("replay without a path accepted")
	}
	if _, err := OpenBackend("replay", BackendParams{Options: map[string]string{"path": log, "mode": "rewind"}}); err == nil {
		t.Error("replay with a bogus mode accepted")
	}
}

// TestRecordPathExclusive: two live recorders on one log would interleave
// buffered writes and corrupt it silently; the second open must fail, and
// closing the first must release the path.
func TestRecordPathExclusive(t *testing.T) {
	log := filepath.Join(t.TempDir(), "ops.jsonl")
	params := BackendParams{
		Manufacturer: "A", Serial: 5, Deterministic: true, Geometry: quickGeometry(),
		Options: map[string]string{"mode": "record", "path": log},
	}
	first, err := OpenBackend("replay", params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBackend("replay", params); err == nil || !strings.Contains(err.Error(), "already being recorded") {
		t.Errorf("second recorder on one path: err = %v, want already-recording failure", err)
	}
	if err := closeDevice(first); err != nil {
		t.Fatal(err)
	}
	second, err := OpenBackend("replay", params)
	if err != nil {
		t.Fatalf("path not released after Close: %v", err)
	}
	closeDevice(second)
}

func TestFaultyBackendStuckCells(t *testing.T) {
	profile := quickProfile(t)
	src, err := Open(context.Background(), profile, WithBackend("faulty", map[string]string{
		"stuck": "1", "stuck-value": "1",
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	bits, err := src.ReadBits(512)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bits {
		if b != 1 {
			t.Fatalf("bit %d = %d; with every column stuck at 1 the harvest must be all ones", i, b)
		}
	}

	if _, err := OpenBackend("faulty", BackendParams{Manufacturer: "A", Options: map[string]string{"stuck": "2"}}); err == nil {
		t.Error("stuck fraction above 1 accepted")
	}
	if _, err := OpenBackend("faulty", BackendParams{Manufacturer: "A", Options: map[string]string{"bogus": "x"}}); err == nil {
		t.Error("unknown faulty option accepted")
	}
}

func TestFaultyTemperatureDrift(t *testing.T) {
	profile := quickProfile(t)
	dev, err := OpenBackend("faulty", BackendParams{
		Manufacturer:  profile.Manufacturer,
		Serial:        profile.Serial,
		Deterministic: true,
		Geometry:      profile.Geometry,
		Options:       map[string]string{"stuck": "0", "drift": "5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := dev.Temperature()
	src, err := Open(context.Background(), profile, WithDevice(dev))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.ReadBits(2048); err != nil {
		t.Fatal(err)
	}
	if got := dev.Temperature(); got <= base {
		t.Errorf("temperature %v after reads, want drift above the %v baseline", got, base)
	}
}

// TestCharacterizeOnReplayBackend closes the loop on backend-agnostic
// characterization: a characterization recorded through the replay backend
// replays into an identical profile without a simulated device.
func TestCharacterizeOnReplayBackend(t *testing.T) {
	log := filepath.Join(t.TempDir(), "char.jsonl")
	opts := []Option{
		WithManufacturer("A"),
		WithSerial(77),
		WithDeterministic(true),
		WithGeometry(quickGeometry()),
		WithProfilingRegion(64, 8, 2),
		WithSamples(200),
		WithTolerance(0.45),
		WithMaxBiasDelta(0.05),
		WithScreenIterations(20),
	}
	rec, err := Characterize(context.Background(), append(opts,
		WithBackend("replay", map[string]string{"mode": "record", "path": log}))...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Characterize(context.Background(), append(opts,
		WithBackend("replay", map[string]string{"mode": "replay", "path": log}))...)
	if err != nil {
		t.Fatal(err)
	}
	a, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("characterization replay produced a different profile")
	}
}

// openFaultyDevice opens the faulty backend over the deterministic simulator
// for the scenario-matrix tests.
func openFaultyDevice(t *testing.T, opts map[string]string) Device {
	t.Helper()
	dev, err := OpenBackend("faulty", BackendParams{
		Manufacturer: "A", Serial: 9, Deterministic: true,
		Geometry: quickGeometry(), Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeDevice(dev) })
	return dev
}

// TestFaultyScenarioMatrix covers the time-dependent fault scenarios the
// faulty backend models beyond static stuck cells: aging curves, retention
// failures, voltage droop and temperature schedules, all keyed to the
// device's read count.
func TestFaultyScenarioMatrix(t *testing.T) {
	// countOnes reads word 0 of (bank 0, row 0) through a controller at safe
	// timing and counts set bits; writes/asserts drive the scenario clock,
	// since every ReadWord advances the device's read count by one.
	readWord := func(ctrl *memctrl.Controller) int {
		t.Helper()
		data, _, err := ctrl.ReadWord(0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ones := 0
		for _, w := range data {
			ones += bits.OnesCount64(w)
		}
		return ones
	}
	wordBits := quickGeometry().WordBits

	t.Run("aging-ramp", func(t *testing.T) {
		dev := openFaultyDevice(t, map[string]string{
			"stuck": "0", "aging": "1", "aging-onset": "8", "aging-reads": "8",
		})
		ctrl := memctrl.NewController(internalDevice(dev))
		if _, err := ctrl.WriteWord(0, 0, 0, make([]uint64, wordBits/64)); err != nil {
			t.Fatal(err)
		}
		var ones []int
		for i := 0; i < 24; i++ {
			ones = append(ones, readWord(ctrl))
		}
		if ones[0] != 0 {
			t.Errorf("read 1 (before aging onset) has %d stuck bits, want 0", ones[0])
		}
		last := ones[len(ones)-1]
		if last != wordBits {
			t.Errorf("read %d (past the ramp) has %d stuck bits, want all %d", len(ones), last, wordBits)
		}
		for i := 1; i < len(ones); i++ {
			if ones[i] < ones[i-1] {
				t.Fatalf("aged columns recovered between reads %d and %d (%d -> %d); the stuck set must be monotone",
					i, i+1, ones[i-1], ones[i])
			}
		}
	})

	t.Run("aging-accel-lags-linear", func(t *testing.T) {
		linear := openFaultyDevice(t, map[string]string{
			"stuck": "0", "aging": "0.8", "aging-reads": "1000",
		}).(*faultyDevice)
		accel := openFaultyDevice(t, map[string]string{
			"stuck": "0", "aging": "0.8", "aging-reads": "1000", "aging-shape": "accel",
		}).(*faultyDevice)
		if l, a := linear.agingFraction(500), accel.agingFraction(500); a >= l {
			t.Errorf("mid-ramp: accel fraction %v >= linear %v; quadratic wear must lag", a, l)
		}
		if l, a := linear.agingFraction(2000), accel.agingFraction(2000); l != 0.8 || a != 0.8 {
			t.Errorf("past the ramp both shapes must reach the full fraction: linear %v, accel %v", l, a)
		}
	})

	t.Run("retention-discharge", func(t *testing.T) {
		dev := openFaultyDevice(t, map[string]string{
			"stuck": "0", "retention": "1", "retention-onset": "4",
		})
		ctrl := memctrl.NewController(internalDevice(dev))
		full := make([]uint64, wordBits/64)
		for i := range full {
			full[i] = ^uint64(0)
		}
		if _, err := ctrl.WriteWord(0, 0, 0, full); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // reads 1-3 precede the onset
			if got := readWord(ctrl); got != wordBits {
				t.Fatalf("read %d before retention onset lost bits: %d/%d ones", i+1, got, wordBits)
			}
		}
		if got := readWord(ctrl); got != 0 { // read 4 hits the onset
			t.Errorf("discharged cells read %d ones, want 0 regardless of the written value", got)
		}
	})

	t.Run("voltage-droop-recovers", func(t *testing.T) {
		dev := openFaultyDevice(t, map[string]string{
			"stuck": "0", "voltage-schedule": "0:1,8:0",
		})
		ctrl := memctrl.NewController(internalDevice(dev))
		if _, err := ctrl.WriteWord(0, 0, 0, make([]uint64, wordBits/64)); err != nil {
			t.Fatal(err)
		}
		if got := readWord(ctrl); got != wordBits { // read 1: full droop
			t.Errorf("under full droop %d/%d bits stuck, want all", got, wordBits)
		}
		for i := 0; i < 6; i++ {
			readWord(ctrl) // reads 2-7
		}
		if got := readWord(ctrl); got != 0 { // read 8: droop lifted
			t.Errorf("after the droop lifts %d bits remain stuck, want 0 (voltage faults are not wear)", got)
		}
	})

	t.Run("temperature-schedule", func(t *testing.T) {
		plain := openFaultyDevice(t, map[string]string{"stuck": "0"})
		dev := openFaultyDevice(t, map[string]string{
			"stuck": "0", "temp-schedule": "0:5,6:15",
		})
		base := plain.Temperature()
		if got := dev.Temperature(); got != base+5 {
			t.Errorf("temperature before the step = %v, want base %v + 5", got, base)
		}
		ctrl := memctrl.NewController(internalDevice(dev))
		for i := 0; i < 6; i++ {
			readWord(ctrl)
		}
		if got := dev.Temperature(); got != base+15 {
			t.Errorf("temperature after the step = %v, want base %v + 15", got, base)
		}
	})

	t.Run("rejections", func(t *testing.T) {
		for _, bad := range []map[string]string{
			{"stuck": "-0.1"},
			{"stuck": "1.5"},
			{"stuck-value": "2"},
			{"stuck-value": "-1"},
			{"drift": "-3"},
			{"aging": "-0.5"},
			{"aging-reads": "0"},
			{"aging-reads": "-10"},
			{"aging-onset": "-1"},
			{"aging-shape": "cubic"},
			{"temp-schedule": "5:1,5:2"},
			{"temp-schedule": "10:1,5:2"},
			{"temp-schedule": "abc"},
			{"voltage-schedule": "0:2"},
			{"voltage-schedule": "0:-0.1"},
			{"retention": "2"},
			{"retention-onset": "-4"},
		} {
			if _, err := OpenBackend("faulty", BackendParams{Manufacturer: "A", Options: bad}); err == nil {
				t.Errorf("faulty backend accepted %v", bad)
			}
		}
	})
}

// TestFailedOpenReleasesOwnedDevices: a failed construction releases every
// device it opened and never a WithDevice device. A replay recorder holds its
// log path until closed, so whether the path can be recorded again tells
// whether its device was released.
func TestFailedOpenReleasesOwnedDevices(t *testing.T) {
	ctx := context.Background()
	p := quickProfile(t)
	record := map[string]string{"mode": "record", "path": filepath.Join(t.TempDir(), "ops.jsonl")}
	params := BackendParams{
		Manufacturer: p.Manufacturer, Serial: p.Serial, Deterministic: true, Geometry: p.Geometry,
		Options: record,
	}
	pathFree := func() bool {
		dev, err := OpenBackend("replay", params)
		if err != nil {
			return false
		}
		closeDevice(dev)
		return true
	}

	// Member 1 cannot record to the path member 0 holds.
	if _, err := OpenPool(ctx, []*Profile{p, p}, WithBackend("replay", record)); err == nil || !strings.Contains(err.Error(), "already being recorded") {
		t.Fatalf("pool of two recorders on one path: err = %v, want already-recording failure", err)
	}
	if !pathFree() {
		t.Error("failed OpenPool did not release member 0's device")
	}

	// An invalid symbol width fails the monitor build, after the engine
	// started.
	badTests := WithHealthTests(HealthTestPolicy{SymbolBits: 99})
	rec, err := OpenBackend("replay", params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, p, WithDevice(rec), badTests); err == nil {
		t.Fatal("Open with a 99-bit health-test symbol succeeded")
	}
	if pathFree() {
		t.Error("failed Open released the caller's WithDevice device")
	}
	if err := closeDevice(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, p, WithBackend("replay", record), badTests); err == nil {
		t.Fatal("Open with a 99-bit health-test symbol succeeded")
	}
	if !pathFree() {
		t.Error("failed Open did not release the device it opened")
	}
}
