package core

import (
	"fmt"
	"sort"

	"repro/internal/profiler"
)

// WordRef identifies one DRAM word and the RNG cells it contains.
type WordRef struct {
	Bank     int
	Row      int
	WordIdx  int
	RNGCells []RNGCell
}

// BankSelection is the per-bank selection Algorithm 2 requires: two DRAM
// words in distinct rows, chosen to maximise the number of RNG cells
// (Section 6.2's "DRAM words with the highest density of RNG cells in each
// bank").
type BankSelection struct {
	Bank  int
	Word1 WordRef
	Word2 WordRef
}

// Bits returns the number of RNG cells across the two selected words: the
// bank's TRNG data rate per loop iteration.
func (s BankSelection) Bits() int {
	return len(s.Word1.RNGCells) + len(s.Word2.RNGCells)
}

// GroupByWord groups RNG cells into the DRAM words containing them.
func GroupByWord(cells []RNGCell) []WordRef {
	type key struct{ bank, row, word int }
	m := make(map[key][]RNGCell)
	for _, c := range cells {
		k := key{c.Addr.Bank, c.Addr.Row, c.WordIdx}
		m[k] = append(m[k], c)
	}
	out := make([]WordRef, 0, len(m))
	for k, cs := range m {
		out = append(out, WordRef{Bank: k.bank, Row: k.row, WordIdx: k.word, RNGCells: cs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bank != out[j].Bank {
			return out[i].Bank < out[j].Bank
		}
		if len(out[i].RNGCells) != len(out[j].RNGCells) {
			return len(out[i].RNGCells) > len(out[j].RNGCells)
		}
		if out[i].Row != out[j].Row {
			return out[i].Row < out[j].Row
		}
		return out[i].WordIdx < out[j].WordIdx
	})
	return out
}

// SelectBankWords picks, for each bank that has at least two RNG-cell-bearing
// words in distinct rows, the two words with the most RNG cells. Banks that
// cannot satisfy the distinct-row requirement are skipped. The result is
// sorted by descending TRNG data rate, so callers wanting the best x banks
// take a prefix.
func SelectBankWords(cells []RNGCell) ([]BankSelection, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("core: no RNG cells to select from")
	}
	words := GroupByWord(cells)
	byBank := make(map[int][]WordRef)
	for _, w := range words {
		byBank[w.Bank] = append(byBank[w.Bank], w)
	}
	var out []BankSelection
	for bank, ws := range byBank {
		// ws is already sorted by density within GroupByWord ordering, but
		// re-sort within the bank to be explicit.
		sort.Slice(ws, func(i, j int) bool { return len(ws[i].RNGCells) > len(ws[j].RNGCells) })
		best := ws[0]
		var second *WordRef
		for i := 1; i < len(ws); i++ {
			if ws[i].Row != best.Row {
				second = &ws[i]
				break
			}
		}
		if second == nil {
			continue
		}
		out = append(out, BankSelection{Bank: bank, Word1: best, Word2: *second})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no bank offers two RNG-cell words in distinct rows")
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bits() != out[j].Bits() {
			return out[i].Bits() > out[j].Bits()
		}
		return out[i].Bank < out[j].Bank
	})
	return out, nil
}

// DensityHistogram is the data behind Figure 7: for one bank, how many DRAM
// words contain exactly x RNG cells, for x ≥ 1. Words with zero RNG cells
// are not stored (they are the overwhelming majority).
type DensityHistogram struct {
	Bank int
	// WordsWithNCells[n] is the number of words containing exactly n RNG
	// cells (n ≥ 1).
	WordsWithNCells map[int]int
	// MaxCellsPerWord is the largest number of RNG cells found in a single
	// word.
	MaxCellsPerWord int
	// TotalRNGCells is the total number of RNG cells in the bank.
	TotalRNGCells int
}

// RNGCellDensity computes the per-bank histogram of RNG cells per DRAM word
// from an identification result.
func RNGCellDensity(cells []RNGCell) []DensityHistogram {
	words := GroupByWord(cells)
	byBank := make(map[int]*DensityHistogram)
	for _, w := range words {
		h, ok := byBank[w.Bank]
		if !ok {
			h = &DensityHistogram{Bank: w.Bank, WordsWithNCells: make(map[int]int)}
			byBank[w.Bank] = h
		}
		n := len(w.RNGCells)
		h.WordsWithNCells[n]++
		h.TotalRNGCells += n
		if n > h.MaxCellsPerWord {
			h.MaxCellsPerWord = n
		}
	}
	banks := make([]int, 0, len(byBank))
	for b := range byBank {
		banks = append(banks, b)
	}
	sort.Ints(banks)
	out := make([]DensityHistogram, 0, len(banks))
	for _, b := range banks {
		out = append(out, *byBank[b])
	}
	return out
}

// CellsForCtrl filters an identification result down to the cells belonging
// to a given bank, a convenience for per-bank analyses.
func CellsForBank(cells []RNGCell, bank int) []RNGCell {
	var out []RNGCell
	for _, c := range cells {
		if c.Addr.Bank == bank {
			out = append(out, c)
		}
	}
	return out
}

// addrSetForSelection returns the cell addresses harvested from a selection,
// word by word, in a stable order (ascending column). The TRNG uses this
// ordering to map read data to output bits deterministically.
func addrSetForSelection(w WordRef) []profiler.CellAddr {
	addrs := make([]profiler.CellAddr, 0, len(w.RNGCells))
	for _, c := range w.RNGCells {
		addrs = append(addrs, c.Addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Col < addrs[j].Col })
	return addrs
}
