package main

import (
	"context"
	"fmt"

	"repro/drange"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/pattern"
	"repro/internal/profiler"
	"repro/internal/timing"
)

// deterministicNoiseSalt is the salt drange mixes into a deterministic
// device's serial to seed its noise. The stack check in checkStreams fails
// if the two ever disagree.
const deterministicNoiseSalt = 0xD0A11CE5

// stack is the harvest stack drange.Open assembles for a profile, rebuilt
// from the layers' own packages so that each layer can be timed directly:
// the profile's RNG cells as core selections, the generation parameters,
// and fresh simulated devices on demand.
type stack struct {
	profile *drange.Profile
	sels    []core.BankSelection
	trng    core.TRNGConfig
}

func newStack(p *drange.Profile) (*stack, error) {
	var pat pattern.Pattern
	found := false
	for _, cand := range pattern.All() {
		if cand.String() == p.Characterization.Pattern {
			pat, found = cand, true
		}
	}
	if !found {
		return nil, fmt.Errorf("profile names unknown data pattern %q", p.Characterization.Pattern)
	}
	sels, err := coreSelections(p)
	if err != nil {
		return nil, err
	}
	return &stack{profile: p, sels: sels, trng: core.TRNGConfig{TRCDNS: p.Characterization.TRCDNS, Pattern: pat}}, nil
}

// coreSelections resolves the profile's selected columns against its cell
// list, as drange does when it opens a profile.
func coreSelections(p *drange.Profile) ([]core.BankSelection, error) {
	type key struct{ bank, row, col int }
	cells := make(map[key]drange.Cell)
	for _, c := range p.EffectiveCells() {
		cells[key{c.Bank, c.Row, c.Col}] = c
	}
	word := func(bank int, ws drange.WordSelection) (core.WordRef, error) {
		ref := core.WordRef{Bank: bank, Row: ws.Row, WordIdx: ws.Word}
		for _, col := range ws.Cols {
			c, ok := cells[key{bank, ws.Row, col}]
			if !ok {
				return ref, fmt.Errorf("selection names cell (bank %d, row %d, col %d) missing from the profile", bank, ws.Row, col)
			}
			ref.RNGCells = append(ref.RNGCells, core.RNGCell{
				Addr:          profiler.CellAddr{Bank: c.Bank, Row: c.Row, Col: c.Col},
				WordIdx:       c.Word,
				Fprob:         c.FailProbability,
				SymbolEntropy: c.SymbolEntropy,
			})
		}
		return ref, nil
	}
	var out []core.BankSelection
	for _, s := range p.EffectiveSelections() {
		w1, err := word(s.Bank, s.Word1)
		if err != nil {
			return nil, err
		}
		w2, err := word(s.Bank, s.Word2)
		if err != nil {
			return nil, err
		}
		out = append(out, core.BankSelection{Bank: s.Bank, Word1: w1, Word2: w2})
	}
	return out, nil
}

// device opens a fresh simulated device matching the profile, with the
// per-bank deterministic noise drange gives a deterministic profile.
func (s *stack) device() (*dram.Device, error) {
	g := s.profile.Geometry
	return dram.NewDevice(dram.Config{
		Serial:       s.profile.Serial,
		Manufacturer: dram.Manufacturer(s.profile.Manufacturer),
		Geometry: dram.Geometry{
			Banks: g.Banks, RowsPerBank: g.RowsPerBank, ColsPerRow: g.ColsPerRow,
			SubarrayRows: g.SubarrayRows, WordBits: g.WordBits,
		},
		Timing: timing.NewLPDDR4(),
		Noise:  dram.NewDeterministicBankNoise(s.profile.Serial ^ deterministicNoiseSalt),
	})
}

// engine starts a sharded harvesting engine on a fresh device.
func (s *stack) engine(ctx context.Context, shards int) (*core.Engine, error) {
	dev, err := s.device()
	if err != nil {
		return nil, err
	}
	return core.NewEngine(ctx, dev, s.sels, core.EngineConfig{Shards: shards, TRNG: s.trng})
}

// vulnerableCells counts the weak cells in the selected words that can fail
// under the profile's data pattern. The device draws noise for each on
// every read of its word.
func (s *stack) vulnerableCells() (int, error) {
	dev, err := s.device()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, sel := range s.sels {
		for _, w := range []core.WordRef{sel.Word1, sel.Word2} {
			cols, err := dev.WeakColumnsInWord(sel.Bank, w.Row, w.WordIdx)
			if err != nil {
				return 0, err
			}
			for _, col := range cols {
				c, err := dev.CellCharacter(sel.Bank, w.Row, col)
				if err != nil {
					return 0, err
				}
				if c.VulnerableWhenStoring(s.trng.Pattern.Bit(w.Row, col)) {
					n++
				}
			}
		}
	}
	return n, nil
}
