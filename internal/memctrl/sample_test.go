package memctrl

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/dram"
)

// perCommandDevice hides the simulator's optional fast paths (WordSampler
// and WordReaderInto), so a controller hands it every command separately,
// as it does a wrapping backend.
type perCommandDevice struct{ device.Device }

// sampleGeometry is a small device with the default word size.
var sampleGeometry = dram.Geometry{Banks: 8, RowsPerBank: 256, ColsPerRow: 4096, SubarrayRows: 128, WordBits: 256}

func newSampleDevice(t *testing.T, noise dram.NoiseSource) *dram.Device {
	t.Helper()
	dev, err := dram.NewDevice(dram.Config{Serial: 59, Manufacturer: dram.ManufacturerA, Geometry: sampleGeometry, Noise: noise})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// samplePhases returns the two halves of an Algorithm 2 iteration over
// banks: per bank, a word in a row from 10 on (word 1) and one in a row from
// 40 on (word 2), each holding a cell that fails at 10 ns with a probability
// strictly between 0 and 1, so its outcome depends on the noise draws. Each
// op has its own Dst and the word's current content as Restore.
func samplePhases(t *testing.T, dev *dram.Device, banks []int) [2][]SampleOp {
	t.Helper()
	nw := sampleGeometry.WordBits / 64
	random := func(bank, row, w int) bool {
		weak, err := dev.WeakColumnsInWord(bank, row, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range weak {
			p, err := dev.FailureProbabilityAt(bank, row, col, 10)
			if err != nil {
				t.Fatal(err)
			}
			if p > 0 && p < 1 {
				return true
			}
		}
		return false
	}
	var phases [2][]SampleOp
	for _, bank := range banks {
		for half, start := range []int{10, 40} {
			op, found := SampleOp{Bank: bank}, false
			for row := start; row < start+30 && !found; row++ {
				for w := 0; w < sampleGeometry.WordsPerRow() && !found; w++ {
					op.Row, op.Word, found = row, w, random(bank, row, w)
				}
			}
			if !found {
				t.Fatalf("bank %d has no word with a random cell in rows %d-%d", bank, start, start+29)
			}
			data, err := dev.ReadRowRaw(bank, op.Row)
			if err != nil {
				t.Fatal(err)
			}
			op.Dst = make([]uint64, nw)
			op.Restore = append([]uint64(nil), data[op.Word*nw:(op.Word+1)*nw]...)
			phases[half] = append(phases[half], op)
		}
	}
	return phases
}

// sampleRun is everything a run of sample phases leaves observable.
type sampleRun struct {
	words [][]uint64 // every op's Dst after every phase, in order
	dev   dram.DeviceStats
	ctrl  Stats
	trace string
	now   int64
	noise []float64 // the next draw of every bank's noise stream
}

// sampleTRCD is the reduced tRCD the sample tests program, in nanoseconds.
const sampleTRCD = 10

// runSample issues iterations Algorithm 2 iterations, each phase repeat
// times in a row, through issue, on ctrl at the reduced tRCD sampleTRCD.
func runSample(t *testing.T, dev *dram.Device, ctrl *Controller, phases [2][]SampleOp, iterations, repeat int,
	issue func([]SampleOp) error, nextNoise func(bank int) float64) sampleRun {
	t.Helper()
	if err := ctrl.SetReducedTRCD(sampleTRCD); err != nil {
		t.Fatal(err)
	}
	var r sampleRun
	for i := 0; i < iterations; i++ {
		for half, ops := range phases {
			for k := 0; k < repeat; k++ {
				if err := issue(ops); err != nil {
					t.Fatalf("iteration %d half %d: %v", i, half, err)
				}
				for _, op := range ops {
					r.words = append(r.words, append([]uint64(nil), op.Dst...))
				}
			}
		}
	}
	r.dev, r.ctrl, r.now = dev.Stats(), ctrl.Stats(), ctrl.Now()
	r.trace = fmt.Sprint(ctrl.Trace())
	for bank := 0; bank < sampleGeometry.Banks; bank++ {
		r.noise = append(r.noise, nextNoise(bank))
	}
	return r
}

// issueMethods issues a phase through the per-command controller methods:
// every op's refresh (ActivateRow and PrechargeBank at the default tRCD) and
// ActivateRow, then every ReadWordInto, then every WriteWord, then every
// PrechargeBank, as the op's options ask.
func issueMethods(ctrl *Controller) func([]SampleOp) error {
	return func(ops []SampleOp) error {
		for _, op := range ops {
			if op.Refresh {
				ctrl.ResetTRCD()
				if err := ctrl.ActivateRow(op.Bank, op.Row); err != nil {
					return err
				}
				if err := ctrl.PrechargeBank(op.Bank); err != nil {
					return err
				}
				if err := ctrl.SetReducedTRCD(sampleTRCD); err != nil {
					return err
				}
			}
			if err := ctrl.ActivateRow(op.Bank, op.Row); err != nil {
				return err
			}
		}
		for _, op := range ops {
			if _, err := ctrl.ReadWordInto(op.Bank, op.Row, op.Word, op.Dst); err != nil {
				return err
			}
		}
		for _, op := range ops {
			if op.RestoreIfDirty && slices.Equal(op.Dst, op.Restore) {
				continue
			}
			if _, err := ctrl.WriteWord(op.Bank, op.Row, op.Word, op.Restore); err != nil {
				return err
			}
		}
		for _, op := range ops {
			if op.Close {
				if err := ctrl.PrechargeBank(op.Bank); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// TestSamplePhaseFusedMatchesPerCommand drives the same sample phases on a
// simulated device, which takes each sampled word as one SampleWord call,
// and on a twin that hides its fast paths and so gets every command
// separately. Read words, device and controller counters, trace, clock and
// the next draw of every noise stream must all be equal. Without refresh the
// per-command controller methods, called in the same phase order, must give
// the same result too. The option cases cover each SampleOp option: Refresh
// with the bank closed, with the op's row open and with another row open
// (each phase issued twice, without Close), RestoreIfDirty on clean and
// dirty reads, and Close, alone and together as characterization's probe.
func TestSamplePhaseFusedMatchesPerCommand(t *testing.T) {
	bankNoise := func() (dram.NoiseSource, func(int) float64) {
		n := dram.NewDeterministicBankNoise(7)
		return n, n.GaussianFor
	}
	sharedNoise := func() (dram.NoiseSource, func(int) float64) {
		n := dram.NewDeterministicNoise(7)
		return n, func(int) float64 { return n.Gaussian() }
	}
	refresh := func(op *SampleOp) { op.Refresh = true }
	restoreIfDirty := func(op *SampleOp) { op.RestoreIfDirty = true }
	closeRow := func(op *SampleOp) { op.Close = true }
	probe := func(op *SampleOp) { op.Refresh, op.RestoreIfDirty, op.Close = true, true, true }
	cases := []struct {
		name  string
		noise func() (dram.NoiseSource, func(int) float64)
		opts  []Option
		// option sets every op's options.
		option func(*SampleOp)
		// openFirst activates the first op's row through the controller at
		// the reduced tRCD before the phases start, so that op issues no
		// ACT: the device gets its read per command, ahead of the fused
		// samples of the other banks.
		openFirst  bool
		iterations int
		// repeat is how often each phase is issued in a row (1 when 0).
		repeat  int
		refresh bool
	}{
		{name: "bank noise", noise: bankNoise, iterations: 20},
		{name: "shared noise", noise: sharedNoise, iterations: 20},
		{name: "trace", noise: sharedNoise, opts: []Option{WithTrace()}, iterations: 20},
		{name: "row already open", noise: sharedNoise, opts: []Option{WithTrace()}, openFirst: true, iterations: 3},
		{name: "refresh", noise: bankNoise, opts: []Option{WithRefresh(), WithTrace()}, iterations: 150, refresh: true},
		{name: "option refresh", noise: sharedNoise, opts: []Option{WithTrace()}, option: refresh, openFirst: true, iterations: 10, repeat: 2},
		{name: "option restore if dirty", noise: sharedNoise, opts: []Option{WithTrace()}, option: restoreIfDirty, iterations: 20},
		{name: "option close", noise: bankNoise, opts: []Option{WithTrace()}, option: closeRow, iterations: 20},
		{name: "option probe", noise: sharedNoise, opts: []Option{WithTrace()}, option: probe, iterations: 20},
		{name: "option probe, bank noise, no trace", noise: bankNoise, option: probe, iterations: 20},
		{name: "option probe with refresh", noise: bankNoise, opts: []Option{WithRefresh(), WithTrace()}, option: probe, iterations: 60, refresh: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			banks := []int{0, 2, 3, 5}
			repeat := max(tc.repeat, 1)
			run := func(wrap, methods bool) sampleRun {
				noise, next := tc.noise()
				dev := newSampleDevice(t, noise)
				var d device.Device = dev
				if wrap {
					d = perCommandDevice{dev}
				}
				ctrl := NewController(d, tc.opts...)
				phases := samplePhases(t, dev, banks)
				if tc.option != nil {
					for _, ops := range phases {
						for i := range ops {
							tc.option(&ops[i])
						}
					}
				}
				if tc.openFirst {
					if err := ctrl.SetReducedTRCD(sampleTRCD); err != nil {
						t.Fatal(err)
					}
					if err := ctrl.ActivateRow(phases[0][0].Bank, phases[0][0].Row); err != nil {
						t.Fatal(err)
					}
				}
				issue := ctrl.SamplePhase
				if methods {
					issue = issueMethods(ctrl)
				}
				return runSample(t, dev, ctrl, phases, tc.iterations, repeat, issue, next)
			}
			fused, perCommand := run(false, false), run(true, false)
			if fused.dev.InjectedFlips == 0 {
				t.Fatal("no activation failure was injected: the comparison is vacuous")
			}
			if tc.refresh && fused.ctrl.Refreshes < 3 {
				t.Fatalf("%d refreshes, want the run to cross at least 3 tREFI windows", fused.ctrl.Refreshes)
			}
			if tc.option != nil {
				probe := SampleOp{}
				tc.option(&probe)
				if probe.RestoreIfDirty && (fused.ctrl.Writes == 0 || fused.ctrl.Writes == fused.ctrl.Reads) {
					t.Fatalf("%d writes for %d reads: want both clean and dirty reads", fused.ctrl.Writes, fused.ctrl.Reads)
				}
			}
			compareRuns(t, "per-command device", fused, perCommand)
			if !tc.refresh {
				compareRuns(t, "per-command methods", fused, run(false, true))
			}
		})
	}
}

func compareRuns(t *testing.T, what string, fused, other sampleRun) {
	t.Helper()
	if len(fused.words) != len(other.words) {
		t.Fatalf("%s: %d words read, fused %d", what, len(other.words), len(fused.words))
	}
	for i := range fused.words {
		if !reflect.DeepEqual(fused.words[i], other.words[i]) {
			t.Fatalf("%s: word %d = %x, fused %x", what, i, other.words[i], fused.words[i])
		}
	}
	if fused.dev != other.dev {
		t.Errorf("%s: device stats %+v, fused %+v", what, other.dev, fused.dev)
	}
	if fused.ctrl != other.ctrl {
		t.Errorf("%s: controller stats %+v, fused %+v", what, other.ctrl, fused.ctrl)
	}
	if fused.trace != other.trace {
		t.Errorf("%s: command traces differ", what)
	}
	if fused.now != other.now {
		t.Errorf("%s: clock at cycle %d, fused %d", what, other.now, fused.now)
	}
	if !reflect.DeepEqual(fused.noise, other.noise) {
		t.Errorf("%s: next noise draws %v, fused %v", what, other.noise, fused.noise)
	}
}

// TestSamplePhaseRejectsSameOnBothPaths checks that an op the controller or
// the device rejects gives the same error whether the device takes fused
// samples or separate commands.
func TestSamplePhaseRejectsSameOnBothPaths(t *testing.T) {
	cases := []struct {
		name string
		edit func(ops []SampleOp)
		// behind opens a row on the device behind the controller's back, so
		// the controller issues an ACT to a bank it believes is precharged.
		behind bool
	}{
		{name: "bank out of range", edit: func(ops []SampleOp) { ops[1].Bank = sampleGeometry.Banks }},
		{name: "negative bank", edit: func(ops []SampleOp) { ops[1].Bank = -1 }},
		{name: "row out of range", edit: func(ops []SampleOp) { ops[2].Row = sampleGeometry.RowsPerBank }},
		{name: "word out of range", edit: func(ops []SampleOp) { ops[2].Word = sampleGeometry.WordsPerRow() }},
		{name: "short buffer", edit: func(ops []SampleOp) { ops[0].Dst = ops[0].Dst[:1] }},
		{name: "bank named twice", edit: func(ops []SampleOp) { ops[3].Bank = ops[0].Bank }},
		{name: "bank not precharged", edit: func([]SampleOp) {}, behind: true},
		{name: "bank not precharged, refresh", edit: func(ops []SampleOp) {
			for i := range ops {
				ops[i].Refresh, ops[i].RestoreIfDirty, ops[i].Close = true, true, true
			}
		}, behind: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errs [2]error
			for i, wrap := range []bool{false, true} {
				dev := newSampleDevice(t, dram.NewDeterministicBankNoise(3))
				var d device.Device = dev
				if wrap {
					d = perCommandDevice{dev}
				}
				ctrl := NewController(d)
				if err := ctrl.SetReducedTRCD(10); err != nil {
					t.Fatal(err)
				}
				ops := samplePhases(t, dev, []int{0, 2, 3, 5})[0]
				tc.edit(ops)
				if tc.behind {
					if err := dev.Activate(ops[2].Bank, ops[2].Row+1, 18); err != nil {
						t.Fatal(err)
					}
				}
				errs[i] = ctrl.SamplePhase(ops)
			}
			if errs[0] == nil {
				t.Fatal("fused path accepted the phase")
			}
			if errs[1] == nil || errs[0].Error() != errs[1].Error() {
				t.Fatalf("fused path: %v; per-command path: %v", errs[0], errs[1])
			}
		})
	}
}

// TestSamplePhaseConcurrentControllers runs four controllers over disjoint
// banks of one device from four goroutines; with per-bank noise streams,
// every bank's read words must equal those of the same loops run one after
// another on a twin device.
func TestSamplePhaseConcurrentControllers(t *testing.T) {
	const iterations = 50
	run := func(concurrent bool) [][][]uint64 {
		dev := newSampleDevice(t, dram.NewDeterministicBankNoise(11))
		ctrls := make([]*Controller, 4)
		phases := make([][2][]SampleOp, 4)
		for k := range ctrls {
			ctrls[k] = NewController(dev)
			if err := ctrls[k].SetReducedTRCD(10); err != nil {
				t.Fatal(err)
			}
			phases[k] = samplePhases(t, dev, []int{2 * k, 2*k + 1})
		}
		words := make([][][]uint64, sampleGeometry.Banks)
		loop := func(k int) error {
			for i := 0; i < iterations; i++ {
				for _, ops := range phases[k] {
					if err := ctrls[k].SamplePhase(ops); err != nil {
						return err
					}
					for _, op := range ops {
						words[op.Bank] = append(words[op.Bank], append([]uint64(nil), op.Dst...))
					}
				}
			}
			return nil
		}
		errs := make([]error, len(ctrls))
		if concurrent {
			var wg sync.WaitGroup
			for k := range ctrls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[k] = loop(k)
				}()
			}
			wg.Wait()
		} else {
			for k := range ctrls {
				errs[k] = loop(k)
			}
		}
		for k, err := range errs {
			if err != nil {
				t.Fatalf("controller %d: %v", k, err)
			}
		}
		return words
	}
	want, got := run(false), run(true)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent controllers read different words than a sequential run")
	}
}
