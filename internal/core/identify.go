// Package core implements D-RaNGe, the paper's contribution: identifying
// DRAM cells that produce truly random values when read with a reduced
// activation latency (RNG cells, Section 6.1), selecting the best DRAM words
// per bank, and continuously sampling those cells to produce a
// high-throughput stream of true random numbers (Algorithm 2, Section 6.2),
// together with the throughput, latency and energy estimators used in the
// evaluation (Section 7.3).
package core

import (
	"fmt"
	"sort"

	"repro/internal/entropy"
	"repro/internal/memctrl"
	"repro/internal/pattern"
	"repro/internal/profiler"
)

// RNGCell is a DRAM cell identified as a reliable entropy source: reading it
// with a reduced tRCD returns values that are statistically uniform.
type RNGCell struct {
	Addr profiler.CellAddr
	// WordIdx is the DRAM word containing the cell.
	WordIdx int
	// Fprob is the observed activation-failure probability during
	// identification.
	Fprob float64
	// SymbolEntropy is the Shannon entropy (bits per symbol) of the 3-bit
	// symbol distribution observed during identification.
	SymbolEntropy float64
}

// IdentifyConfig controls RNG-cell identification.
type IdentifyConfig struct {
	// TRCDNS is the reduced activation latency used for sampling (10 ns by
	// default, as in the characterization).
	TRCDNS float64
	// ScreenIterations is the number of iterations of the cheap screening
	// pass (Algorithm 1) used to find candidate cells before deep
	// profiling.
	ScreenIterations int
	// Samples is the number of reads per candidate cell in the deep
	// profiling pass (1000 in the paper).
	Samples int
	// SymbolBits is the symbol width used for the uniformity test (3 in the
	// paper).
	SymbolBits int
	// Tolerance is the allowed deviation of each symbol count from the
	// expected count (±10% in the paper).
	Tolerance float64
	// MaxBiasDelta is the maximum allowed deviation of the cell's observed
	// failure probability from one half. An explicit 0 is honoured: it
	// admits only cells whose observed failure probability is exactly one
	// half. DefaultIdentifyConfig selects 0.05. The paper's
	// symbol-uniformity criterion implies such a bound; making it explicit
	// keeps loose-tolerance configurations from admitting biased cells.
	MaxBiasDelta float64
	// Pattern is the data pattern written around the cells during
	// identification and later during generation.
	Pattern pattern.Pattern
}

// DefaultIdentifyConfig returns the paper's identification parameters for a
// device of the given manufacturer: tRCD 10 ns, 1000-sample profiling, 3-bit
// symbols within ±10%, and the manufacturer's best data pattern.
func DefaultIdentifyConfig(m string) IdentifyConfig {
	return IdentifyConfig{
		TRCDNS:           10.0,
		ScreenIterations: 100,
		Samples:          1000,
		SymbolBits:       3,
		Tolerance:        0.10,
		MaxBiasDelta:     0.05,
		Pattern:          pattern.BestFor(m),
	}
}

func (c IdentifyConfig) validate(ctrl *memctrl.Controller) error {
	if c.TRCDNS <= 0 || c.TRCDNS > ctrl.Params().TRCD {
		return fmt.Errorf("core: identification tRCD %v ns outside (0, %v]", c.TRCDNS, ctrl.Params().TRCD)
	}
	if c.ScreenIterations <= 0 {
		return fmt.Errorf("core: screen iterations must be positive, got %d", c.ScreenIterations)
	}
	if c.Samples < 8 {
		return fmt.Errorf("core: need at least 8 samples per cell, got %d", c.Samples)
	}
	if c.SymbolBits < 1 || c.SymbolBits > 8 {
		return fmt.Errorf("core: symbol width %d outside [1,8]", c.SymbolBits)
	}
	if c.Tolerance <= 0 || c.Tolerance >= 1 {
		return fmt.Errorf("core: tolerance %v outside (0,1)", c.Tolerance)
	}
	if c.MaxBiasDelta < 0 || c.MaxBiasDelta >= 0.5 {
		return fmt.Errorf("core: MaxBiasDelta %v outside [0,0.5)", c.MaxBiasDelta)
	}
	return nil
}

// IdentifyRNGCells finds the RNG cells within the region. It first runs a
// cheap screening pass (Algorithm 1) to find candidate failure-prone cells,
// then samples the DRAM words containing candidates cfg.Samples times and
// keeps the cells whose read-value streams are uniform at the configured
// symbol width and tolerance (the Section 6.1 criterion).
func IdentifyRNGCells(ctrl *memctrl.Controller, region profiler.Region, cfg IdentifyConfig) ([]RNGCell, error) {
	if err := cfg.validate(ctrl); err != nil {
		return nil, err
	}
	if err := region.Validate(ctrl); err != nil {
		return nil, err
	}

	// Phase 1: cheap screen for failure-prone cells. A cell whose failure
	// probability is near 0 or 1 cannot produce a uniform stream, so only
	// cells in a broad middle band proceed to deep profiling.
	screen, err := profiler.Run(ctrl, region, profiler.Config{
		TRCDNS:     cfg.TRCDNS,
		Iterations: cfg.ScreenIterations,
		Pattern:    cfg.Pattern,
	})
	if err != nil {
		return nil, err
	}
	candidates := screen.CellsWithFprobBetween(0.15, 0.85)
	if len(candidates) == 0 {
		return nil, nil
	}
	sort.Slice(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		return a.Col < b.Col
	})

	// Group the sorted candidates by (row, word) so the deep pass only
	// touches words that contain candidates. Each word carries everything
	// the sample loop needs: its expected content, its candidates' bit
	// offsets within the word, and their read-value streams (a window of
	// streams, which is indexed like candidates).
	g := ctrl.Device().Geometry()
	wordU64s := g.WordBits / 64
	type deepWord struct {
		row, word int
		expected  []uint64
		offsets   []int
		streams   [][]byte
	}
	var words []deepWord
	streams := make([][]byte, len(candidates))
	for i, c := range candidates {
		streams[i] = make([]byte, 0, cfg.Samples)
		w := c.Col / g.WordBits
		if n := len(words); n == 0 || words[n-1].row != c.Row || words[n-1].word != w {
			rowData, err := cfg.Pattern.FillRow(c.Row, g.ColsPerRow)
			if err != nil {
				return nil, err
			}
			words = append(words, deepWord{row: c.Row, word: w, expected: rowData[w*wordU64s : (w+1)*wordU64s], streams: streams[i:i]})
		}
		dw := &words[len(words)-1]
		dw.offsets = append(dw.offsets, c.Col-w*g.WordBits)
		dw.streams = dw.streams[:len(dw.streams)+1]
	}

	// Phase 2: deep profiling. Record every candidate cell's read-value
	// stream over cfg.Samples reduced-latency reads.
	if err := profiler.WritePattern(ctrl, region, cfg.Pattern); err != nil {
		return nil, err
	}
	if err := ctrl.SetReducedTRCD(cfg.TRCDNS); err != nil {
		return nil, err
	}
	defer ctrl.ResetTRCD()

	// Each sample is Algorithm 1's probe: refresh, reduced-latency ACT and
	// READ, restore if the read failed, PRE.
	probe := []memctrl.SampleOp{{Bank: region.Bank, Dst: make([]uint64, wordU64s), Refresh: true, RestoreIfDirty: true, Close: true}}
	op := &probe[0]
	for s := 0; s < cfg.Samples; s++ {
		for i := range words {
			dw := &words[i]
			op.Row, op.Word, op.Restore = dw.row, dw.word, dw.expected
			if err := ctrl.SamplePhase(probe); err != nil {
				return nil, err
			}
			for j, off := range dw.offsets {
				dw.streams[j] = append(dw.streams[j], byte((op.Dst[off/64]>>uint(off%64))&1))
			}
		}
	}

	// Apply the Section 6.1 criterion. Candidates are in (row, col) order,
	// so the result is too.
	var out []RNGCell
	for i, c := range candidates {
		stream := streams[i]
		uniform, err := entropy.SymbolsUniform(stream, cfg.SymbolBits, cfg.Tolerance)
		if err != nil {
			return nil, err
		}
		if !uniform {
			continue
		}
		expBit := cfg.Pattern.Bit(c.Row, c.Col)
		fails := 0
		for _, v := range stream {
			if uint64(v) != expBit {
				fails++
			}
		}
		fprob := float64(fails) / float64(len(stream))
		if fprob < 0.5-cfg.MaxBiasDelta || fprob > 0.5+cfg.MaxBiasDelta {
			continue
		}
		symEnt, err := entropy.ShannonSymbolEntropy(stream, cfg.SymbolBits)
		if err != nil {
			return nil, err
		}
		out = append(out, RNGCell{
			Addr:          c,
			WordIdx:       c.Col / g.WordBits,
			Fprob:         fprob,
			SymbolEntropy: symEnt,
		})
	}
	return out, nil
}
