package dram

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// referenceReadWord is ReadWordInto with the injection the kernel replaced:
// every decision draws a whole Box–Muller sample through the sources' public
// Gaussian methods (GaussianFor on a per-bank source), one lock per sample.
// It is the oracle injectFailuresLocked must match word for word and draw
// for draw.
func referenceReadWord(t *testing.T, d *Device, bank, wordIdx int) []uint64 {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.banks[bank]
	if !b.open {
		t.Fatalf("reference read from closed bank %d", bank)
	}
	row := b.openRow
	data := d.rowDataLocked(bank, row)
	if b.firstAccessPending {
		b.firstAccessPending = false
		if b.activatedTRCD < d.timing.TRCD {
			referenceInjectLocked(d, bank, row, wordIdx, b.activatedTRCD, data)
		}
	}
	d.stats.Reads++
	nw := d.geom.wordU64s()
	return slices.Clone(data[wordIdx*nw : (wordIdx+1)*nw])
}

func referenceInjectLocked(d *Device, bank, row, wordIdx int, trcdNS float64, data []uint64) {
	gaussianFor := func() float64 {
		if bn, ok := d.noise.(*DeterministicBankNoise); ok {
			return bn.GaussianFor(bank)
		}
		return d.noise.Gaussian()
	}
	info := d.injectInfoLocked(bank, row, wordIdx)
	var above, below []uint64
	if row > 0 {
		above = d.rowDataLocked(bank, row-1)
	}
	if row < d.geom.RowsPerBank-1 {
		below = d.rowDataLocked(bank, row+1)
	}
	temp := d.temperatureC
	for i, col := range info.cols {
		c := &info.chars[i]
		stored := getBit(data, col)
		if !c.VulnerableWhenStoring(stored) {
			continue
		}
		diff := differingNeighbors(data, above, below, col, d.geom.ColsPerRow, stored)
		margin := trcdNS - c.EffectiveTCritNS(temp, diff)
		differential := margin + c.NoiseSigmaNS*gaussianFor()
		fail := false
		switch {
		case differential < -c.MetastableWindowNS:
			fail = true
		case differential <= c.MetastableWindowNS:
			fail = gaussianFor() < 0
		}
		if fail {
			flipBit(data, col)
			d.stats.InjectedFlips++
		}
	}
}

// nextWords draws the next words of each bank's stream and of the bankless
// one: equal results from two sources mean their streams stand at the same
// positions.
func nextWords(src NoiseSource, banks int) []uint64 {
	out := make([]uint64, 0, 2*(banks+1))
	for b := -1; b < banks; b++ {
		s := src.lockWords(b)
		u1, u2 := s.pair()
		s.unlock()
		out = append(out, u1, u2)
	}
	return out
}

// fillPattern writes one of the test patterns into row of bank on every
// device: 0 all zeros, 1 all ones, 2 alternating columns, 3 alternating
// columns shifted by row (a checkerboard), 4 random words. It reports errors
// with t.Error, so goroutines may call it.
func fillPattern(t *testing.T, devs []*Device, bank, row, pattern int, rng *rand.Rand) {
	t.Helper()
	data := make([]uint64, devs[0].geom.rowU64s())
	for i := range data {
		switch pattern {
		case 1:
			data[i] = ^uint64(0)
		case 2:
			data[i] = 0x5555555555555555
		case 3:
			data[i] = 0x5555555555555555 << (row & 1)
		case 4:
			data[i] = rng.Uint64()
		}
	}
	for _, d := range devs {
		if err := d.WriteRow(bank, row, data); err != nil {
			t.Error(err)
		}
	}
}

// TestInjectionMatchesReference drives a device and a twin fed the same noise
// words through identical command sequences — manufacturers A/B/C, several
// serials, temperatures changed mid-run from 30 to 85 °C, tRCD from 6 to
// 12.5 ns, solid, alternating and random patterns rewritten between reads,
// and both deterministic sources — and requires the kernel to return the
// reference's words, reach the same DeviceStats and leave every bank's stream
// at the same position.
func TestInjectionMatchesReference(t *testing.T) {
	temps := []float64{45, 30, 85, 60, 72.5}
	trcds := []float64{6, 7, 8, 8.5, 9, 9.25, 9.5, 9.75, 10, 10.5, 11, 12.5}
	rows := []int{0, 1, 2, 100, 101, 511, 512, 1022, 1023}
	sources := []struct {
		name string
		new  func(seed uint64) NoiseSource
	}{
		{"bank", func(seed uint64) NoiseSource { return NewDeterministicBankNoise(seed) }},
		{"single", func(seed uint64) NoiseSource { return NewDeterministicNoise(seed) }},
	}
	const banks, steps = 3, 3000
	total, flips := 0, int64(0)
	for _, m := range []Manufacturer{ManufacturerA, ManufacturerB, ManufacturerC} {
		for _, serial := range []uint64{1, 2, 3} {
			for _, src := range sources {
				noise := src.new(serial * 31)
				twinNoise := src.new(serial * 31)
				kernel, err := NewDevice(Config{Serial: serial, Manufacturer: m, Noise: noise})
				if err != nil {
					t.Fatal(err)
				}
				twin, err := NewDevice(Config{Serial: serial, Manufacturer: m, Noise: twinNoise})
				if err != nil {
					t.Fatal(err)
				}
				devs := []*Device{kernel, twin}
				rng := rand.New(rand.NewPCG(serial, uint64(len(src.name))))
				trcd := trcds[0]
				for step := 0; step < steps; step++ {
					if step%300 == 150 {
						temp := temps[rng.IntN(len(temps))]
						for _, d := range devs {
							if err := d.SetTemperature(temp); err != nil {
								t.Fatal(err)
							}
						}
					}
					if step%40 == 0 {
						trcd = trcds[rng.IntN(len(trcds))]
					}
					if step%25 == 0 {
						// Rewrite a whole neighbourhood; between rewrites the
						// failures restored into the array persist and change
						// the neighbour counts later reads see.
						for _, row := range rows {
							fillPattern(t, devs, rng.IntN(banks), row, rng.IntN(5), rng)
						}
					}
					bank, row, w := rng.IntN(banks), rows[rng.IntN(len(rows))], rng.IntN(kernel.geom.WordsPerRow())
					for _, d := range devs {
						if err := d.Activate(bank, row, trcd); err != nil {
							t.Fatal(err)
						}
					}
					got, err := kernel.ReadWord(bank, w)
					if err != nil {
						t.Fatal(err)
					}
					want := referenceReadWord(t, twin, bank, w)
					if !slices.Equal(got, want) {
						t.Fatalf("%s serial %d %s noise step %d (bank %d row %d word %d, tRCD %v, %v °C): kernel read %x, reference %x",
							m, serial, src.name, step, bank, row, w, trcd, kernel.Temperature(), got, want)
					}
					for _, d := range devs {
						if err := d.Precharge(bank); err != nil {
							t.Fatal(err)
						}
					}
				}
				if ks, rs := kernel.Stats(), twin.Stats(); ks != rs {
					t.Fatalf("%s serial %d %s noise: kernel stats %+v, reference %+v", m, serial, src.name, ks, rs)
				}
				banksTouched := kernel.geom.Banks
				if kn, rn := nextWords(noise, banksTouched), nextWords(twinNoise, banksTouched); !slices.Equal(kn, rn) {
					t.Fatalf("%s serial %d %s noise: streams diverged: next words %x, reference %x", m, serial, src.name, kn, rn)
				}
				total += steps
				flips += kernel.Stats().InjectedFlips
			}
		}
	}
	if flips*4 < int64(total) {
		t.Errorf("only %d flips over %d reads: the sweep barely exercises injection", flips, total)
	}
}

// TestFirstDrawBoundaries pins the first-draw threshold where it is
// tightest: |cos 2πu₂| = 1 at u₂ ∈ {0, ½}, so |g| is the whole radius, and
// u₁ sits at and around the threshold T for margins at distance d from
// every region edge. Wherever the entry decides, the float expression must
// agree; just below T, and for d within 10⁻⁶ ns, it must not decide.
func TestFirstDrawBoundaries(t *testing.T) {
	for _, m := range []Manufacturer{ManufacturerA, ManufacturerB, ManufacturerC} {
		p := MustProfile(m)
		sigma, w := p.NoiseSigmaNS, p.MetastableWindowNS
		for _, d := range []float64{0, 1e-9, 5e-7, sigma, 6.67 * sigma, 40 * sigma} {
			// Distance d inside the failing region, inside the window from
			// its lower and upper edges, and inside the passing region.
			for _, margin := range []float64{-w - d, -w + d, w - d, w + d} {
				fd := newFirstDraw(margin, w, sigma)
				if fd == 0 {
					t.Fatalf("%s: entry for margin %v is 0, the unfilled marker", m, margin)
				}
				threshold := uint64(fd) & (1<<firstDrawRegionShift - 1)
				if d < 1e-6 && threshold < 1<<53 {
					t.Errorf("%s: margin %v (d = %v) gets threshold %d; margins this close to an edge must always take the exact path", m, margin, d, threshold)
				}
				for _, k := range []uint64{0, threshold / 2, threshold - 1, threshold, threshold + 1} {
					if k >= 1<<53 {
						continue
					}
					for _, u2 := range []uint64{0, 1 << 63} {
						u1 := k<<11 | 0x5a5
						got, ok := fd.decide(u1)
						if ok != (k >= threshold) || (k == 0 && ok) {
							t.Errorf("%s: margin %v, u₁>>11 = %d, threshold %d: decided = %v", m, margin, k, threshold, ok)
						}
						want := regionOf(margin+sigma*boxMuller(unitFloat(u1), unitFloat(u2)), w)
						if ok && got != want {
							t.Errorf("%s: margin %v (d = %v), u₁>>11 = %d (T = %d), u₂ = %v: entry decides region %d, Box–Muller gives %d",
								m, margin, d, k, threshold, unitFloat(u2), got, want)
						}
					}
				}
			}
		}
	}
}

// TestCoinQuadrantBands checks every u₂ within ±2¹⁶ steps of ¼, of ¾ and of
// the four band edges: coinQuadrant must defer exactly inside the bands and
// agree with the sign of the Box–Muller sample everywhere else.
func TestCoinQuadrantBands(t *testing.T) {
	var points []uint64
	for _, c := range []uint64{quarterTurn, 3 * quarterTurn} {
		points = append(points, c, c-coinBand, c+coinBand)
	}
	inBand := func(k uint64) bool {
		for _, c := range []uint64{quarterTurn, 3 * quarterTurn} {
			if k >= c-coinBand && k <= c+coinBand {
				return true
			}
		}
		return false
	}
	const reach = 1 << 16
	for _, p := range points {
		for k := p - reach; k <= p+reach; k++ {
			v1 := k * 0x9e3779b97f4a7c15
			v2 := k<<11 | v1>>53
			fail, ok := coinQuadrant(v2)
			if ok == inBand(k) {
				t.Fatalf("u₂>>11 = %#x: decided = %v, inside a band = %v", k, ok, inBand(k))
			}
			if want := boxMuller(unitFloat(v1), unitFloat(v2)) < 0; ok && fail != want {
				t.Fatalf("u₂>>11 = %#x: quadrant says fail = %v, Box–Muller sign says %v", k, fail, want)
			}
		}
	}
}

// TestPhysicalNoiseFailureRates checks the one path no digest can pin: with
// OS-entropy noise, a cell whose failure probability is set from about 0.05
// to 0.95 by tRCD must fail within 5σ of FailureProbabilityAt.
func TestPhysicalNoiseFailureRates(t *testing.T) {
	d, err := NewDevice(Config{Serial: 21, Manufacturer: ManufacturerA, Noise: NewPhysicalNoise()})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Geometry()
	zero := make([]uint64, g.rowU64s())
	const row = 40
	for r := row - 1; r <= row+1; r++ {
		if err := d.WriteRow(0, r, zero); err != nil {
			t.Fatal(err)
		}
	}
	// A true cell storing 0 whose left and right columns are not weak: no
	// other failure in its word can change its neighbour count, so its
	// failure probability is FailureProbabilityAt's.
	weak := map[int]bool{}
	for w := 0; w < g.WordsPerRow(); w++ {
		cols, err := d.WeakColumnsInWord(0, row, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range cols {
			weak[col] = true
		}
	}
	col := -1
	for c := 1; c < g.ColsPerRow-1 && col < 0; c++ {
		if ch, _ := d.CellCharacter(0, row, c); weak[c] && !weak[c-1] && !weak[c+1] && !ch.AntiCell {
			col = c
		}
	}
	if col < 0 {
		t.Fatal("no isolated weak true cell in the test row")
	}
	w := col / g.WordBits
	const reads = 20000
	for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		// Failure probability falls as tRCD grows; bisect for p.
		lo, hi := 1.0, 20.0
		for i := 0; i < 60; i++ {
			mid := (lo + hi) / 2
			if q, _ := d.FailureProbabilityAt(0, row, col, mid); q > p {
				lo = mid
			} else {
				hi = mid
			}
		}
		trcd := (lo + hi) / 2
		pModel, err := d.FailureProbabilityAt(0, row, col, trcd)
		if err != nil {
			t.Fatal(err)
		}
		fails := 0
		for i := 0; i < reads; i++ {
			if err := d.Activate(0, row, trcd); err != nil {
				t.Fatal(err)
			}
			got, err := d.ReadWord(0, w)
			if err != nil {
				t.Fatal(err)
			}
			if getBit(got, col-w*g.WordBits) != 0 {
				fails++
			}
			if err := d.WriteWord(0, w, zero[:g.wordU64s()]); err != nil {
				t.Fatal(err)
			}
			if err := d.Precharge(0); err != nil {
				t.Fatal(err)
			}
		}
		mean := reads * pModel
		sd := math.Sqrt(reads * pModel * (1 - pModel))
		if math.Abs(float64(fails)-mean) > 5*sd {
			t.Errorf("tRCD %.4f ns: %d failures in %d reads, model expects %.1f ± %.1f (p = %.3f)", trcd, fails, reads, mean, sd, pModel)
		}
	}
}

// TestBankNoiseConcurrentBanks drives disjoint banks of one
// DeterministicBankNoise device from four goroutines while a fifth draws
// bankless samples from the same source: every bank must read exactly the
// words a sequential run reads. Run it under -race -count=10.
func TestBankNoiseConcurrentBanks(t *testing.T) {
	const banks, reads = 4, 1000
	trcds := []float64{8.5, 9, 9.5, 10}
	drive := func(t *testing.T, d *Device, bank int) []uint64 {
		rng := rand.New(rand.NewPCG(uint64(bank), 9))
		var out []uint64
		for i := 0; i < reads; i++ {
			row := 200 + rng.IntN(4)
			if i%50 == 0 {
				fillPattern(t, []*Device{d}, bank, row, rng.IntN(5), rng)
			}
			if err := d.Activate(bank, row, trcds[rng.IntN(len(trcds))]); err != nil {
				t.Error(err)
				return nil
			}
			got, err := d.ReadWord(bank, rng.IntN(d.geom.WordsPerRow()))
			if err != nil {
				t.Error(err)
				return nil
			}
			out = append(out, got...)
			if err := d.Precharge(bank); err != nil {
				t.Error(err)
				return nil
			}
		}
		return out
	}
	newDev := func() (*Device, *DeterministicBankNoise) {
		src := NewDeterministicBankNoise(77)
		d, err := NewDevice(Config{Serial: 4, Manufacturer: ManufacturerA, Noise: src})
		if err != nil {
			t.Fatal(err)
		}
		return d, src
	}

	seqDev, _ := newDev()
	want := make([][]uint64, banks)
	for b := range want {
		want[b] = drive(t, seqDev, b)
	}

	d, src := newDev()
	got := make([][]uint64, banks)
	done := make(chan struct{})
	var bankless sync.WaitGroup
	bankless.Add(1)
	go func() {
		defer bankless.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = src.Gaussian()
			}
		}
	}()
	var wg sync.WaitGroup
	for b := 0; b < banks; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[b] = drive(t, d, b)
		}()
	}
	wg.Wait()
	close(done)
	bankless.Wait()
	for b := range want {
		if !slices.Equal(got[b], want[b]) {
			t.Errorf("bank %d: concurrent words differ from the sequential run", b)
		}
	}
	if seqDev.Stats().InjectedFlips == 0 {
		t.Error("no injected flips: the workload does not exercise injection")
	}
}
