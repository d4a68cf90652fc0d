// Package profiler implements the paper's characterization methodology:
// Algorithm 1 (inducing activation failures over a DRAM region with a
// reduced tRCD), and the Section 5 experiments built on it — the spatial
// distribution of failures (Figure 4), data-pattern dependence (Figure 5),
// temperature effects (Figure 6), failure-probability stability over time
// (Section 5.4), and the tRCD sweep used as an ablation.
package profiler

import (
	"fmt"
	"math/bits"

	"repro/internal/memctrl"
	"repro/internal/pattern"
)

// Region is a rectangular region of one bank under test: a range of rows and
// a range of DRAM words within each row.
type Region struct {
	Bank      int
	RowStart  int
	RowCount  int
	WordStart int
	WordCount int
}

// Validate checks the region against the geometry of the controller's
// device.
func (r Region) Validate(ctrl *memctrl.Controller) error {
	g := ctrl.Device().Geometry()
	if r.Bank < 0 || r.Bank >= g.Banks {
		return fmt.Errorf("profiler: bank %d out of range [0,%d)", r.Bank, g.Banks)
	}
	if r.RowCount <= 0 || r.WordCount <= 0 {
		return fmt.Errorf("profiler: region must span at least one row and one word")
	}
	if r.RowStart < 0 || r.RowStart+r.RowCount > g.RowsPerBank {
		return fmt.Errorf("profiler: rows [%d,%d) outside bank of %d rows", r.RowStart, r.RowStart+r.RowCount, g.RowsPerBank)
	}
	if r.WordStart < 0 || r.WordStart+r.WordCount > g.WordsPerRow() {
		return fmt.Errorf("profiler: words [%d,%d) outside row of %d words", r.WordStart, r.WordStart+r.WordCount, g.WordsPerRow())
	}
	return nil
}

// Cells returns the number of cells in the region.
func (r Region) Cells(wordBits int) int {
	return r.RowCount * r.WordCount * wordBits
}

// WholeBank returns a region covering all of the given bank.
func WholeBank(ctrl *memctrl.Controller, bank int) Region {
	g := ctrl.Device().Geometry()
	return Region{Bank: bank, RowStart: 0, RowCount: g.RowsPerBank, WordStart: 0, WordCount: g.WordsPerRow()}
}

// CellAddr identifies one DRAM cell.
type CellAddr struct {
	Bank int
	Row  int
	Col  int
}

// FailureProfile is the result of running Algorithm 1 over a region: how
// many times each cell failed out of the number of test iterations.
type FailureProfile struct {
	Region     Region
	Pattern    pattern.Pattern
	TRCDNS     float64
	Iterations int
	// Counts maps each cell that failed at least once to its failure count.
	Counts map[CellAddr]int
}

// Fprob returns the observed activation-failure probability of the cell.
func (f *FailureProfile) Fprob(c CellAddr) float64 {
	if f.Iterations == 0 {
		return 0
	}
	return float64(f.Counts[c]) / float64(f.Iterations)
}

// FailedCells returns every cell that failed at least once.
func (f *FailureProfile) FailedCells() []CellAddr {
	out := make([]CellAddr, 0, len(f.Counts))
	for c := range f.Counts {
		out = append(out, c)
	}
	return out
}

// CellsWithFprobBetween returns the cells whose observed failure probability
// lies in [lo, hi].
func (f *FailureProfile) CellsWithFprobBetween(lo, hi float64) []CellAddr {
	var out []CellAddr
	for c := range f.Counts {
		p := f.Fprob(c)
		if p >= lo && p <= hi {
			out = append(out, c)
		}
	}
	return out
}

// TotalFailures returns the total number of failure events observed.
func (f *FailureProfile) TotalFailures() int {
	total := 0
	for _, n := range f.Counts {
		total += n
	}
	return total
}

// Config controls a run of Algorithm 1.
type Config struct {
	// TRCDNS is the reduced activation latency used to induce failures. The
	// paper uses 10 ns (default 18 ns) for its characterization.
	TRCDNS float64
	// Iterations is the number of times each word is tested (100 in most of
	// the paper's experiments, 1000 for RNG-cell identification).
	Iterations int
	// Pattern is the data pattern written to the region before testing.
	Pattern pattern.Pattern
}

// DefaultConfig returns the paper's standard characterization configuration:
// tRCD reduced to 10 ns, 100 iterations, solid-0s data pattern.
func DefaultConfig() Config {
	return Config{TRCDNS: 10.0, Iterations: 100, Pattern: pattern.Solid0()}
}

func (c Config) validate(ctrl *memctrl.Controller) error {
	if c.TRCDNS <= 0 || c.TRCDNS > ctrl.Params().TRCD {
		return fmt.Errorf("profiler: tRCD %v ns outside (0, %v]", c.TRCDNS, ctrl.Params().TRCD)
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("profiler: iterations must be positive, got %d", c.Iterations)
	}
	return nil
}

// WritePattern fills the region (and one guard row above and below it, so
// neighbour coupling sees the pattern too) with the data pattern.
func WritePattern(ctrl *memctrl.Controller, region Region, pat pattern.Pattern) error {
	if err := region.Validate(ctrl); err != nil {
		return err
	}
	dev := ctrl.Device()
	g := dev.Geometry()
	rowStart := region.RowStart - 1
	if rowStart < 0 {
		rowStart = 0
	}
	rowEnd := region.RowStart + region.RowCount + 1
	if rowEnd > g.RowsPerBank {
		rowEnd = g.RowsPerBank
	}
	for row := rowStart; row < rowEnd; row++ {
		data, err := pat.FillRow(row, g.ColsPerRow)
		if err != nil {
			return err
		}
		if err := dev.WriteRow(region.Bank, row, data); err != nil {
			return err
		}
	}
	return nil
}

// Run implements Algorithm 1 of the paper. It writes the data pattern to the
// region, programs the reduced tRCD, and then, for every word of every row
// (column-major, so each access goes to a closed row), refreshes the row,
// activates it with the reduced latency, reads the word, records any
// failures, restores the pattern so the next iteration tests the same stored
// data, and precharges. Each such probe is one memctrl.SamplePhase op. The
// controller's default tRCD is restored before returning.
func Run(ctrl *memctrl.Controller, region Region, cfg Config) (*FailureProfile, error) {
	if err := region.Validate(ctrl); err != nil {
		return nil, err
	}
	if err := cfg.validate(ctrl); err != nil {
		return nil, err
	}
	if err := WritePattern(ctrl, region, cfg.Pattern); err != nil {
		return nil, err
	}

	g := ctrl.Device().Geometry()
	wordU64s := g.WordBits / 64
	profile := &FailureProfile{
		Region:     region,
		Pattern:    cfg.Pattern,
		TRCDNS:     cfg.TRCDNS,
		Iterations: cfg.Iterations,
		Counts:     make(map[CellAddr]int),
	}

	// The expected content of every row depends only on the pattern, so it
	// is derived once here rather than on every iteration.
	expected := make([][]uint64, region.RowCount)
	for i := range expected {
		row, err := cfg.Pattern.FillRow(region.RowStart+i, g.ColsPerRow)
		if err != nil {
			return nil, err
		}
		expected[i] = row
	}

	if err := ctrl.SetReducedTRCD(cfg.TRCDNS); err != nil {
		return nil, err
	}
	defer ctrl.ResetTRCD()

	// Lines 6-10: fully refresh the row so every iteration starts from the
	// same charge state, activate it with the reduced tRCD, read the word
	// and precharge. A failed read is restored to the pattern before the
	// precharge, since the sense amplifiers wrote the failures back into the
	// array.
	probe := []memctrl.SampleOp{{Bank: region.Bank, Dst: make([]uint64, wordU64s), Refresh: true, RestoreIfDirty: true, Close: true}}
	op := &probe[0]
	for it := 0; it < cfg.Iterations; it++ {
		for w := region.WordStart; w < region.WordStart+region.WordCount; w++ {
			for row := region.RowStart; row < region.RowStart+region.RowCount; row++ {
				op.Row, op.Word = row, w
				op.Restore = expected[row-region.RowStart][w*wordU64s : (w+1)*wordU64s]
				if err := ctrl.SamplePhase(probe); err != nil {
					return nil, err
				}
				// Line 11: record activation failures.
				for u, got := range op.Dst {
					for diff := got ^ op.Restore[u]; diff != 0; diff &= diff - 1 {
						col := w*g.WordBits + u*64 + bits.TrailingZeros64(diff)
						profile.Counts[CellAddr{Bank: region.Bank, Row: row, Col: col}]++
					}
				}
			}
		}
	}
	return profile, nil
}
