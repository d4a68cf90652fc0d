// Package pattern implements the 40 DRAM data patterns used by the paper's
// characterization methodology (Section 5.2): solid, checkered, row stripe,
// column stripe, the 16 walking-1s, and the inverses of all of these. A data
// pattern defines the value written to every cell of the DRAM region under
// test before activation failures are induced, and therefore controls which
// cells are exposed as failure-prone.
package pattern

import "fmt"

// Kind identifies the family of a data pattern.
type Kind int

const (
	// KindSolid is an all-ones pattern (or all-zeros when inverted).
	KindSolid Kind = iota
	// KindCheckered alternates values in both the row and column directions.
	KindCheckered
	// KindRowStripe alternates values between adjacent rows.
	KindRowStripe
	// KindColStripe alternates values between adjacent columns.
	KindColStripe
	// KindWalking places a single one (or zero, when inverted) every
	// walkPeriod columns, at an offset identified by Index.
	KindWalking
)

// walkPeriod is the period of the walking patterns: a walking-1 pattern k
// sets column c to 1 exactly when c mod walkPeriod == k.
const walkPeriod = 16

// Pattern is one of the characterization data patterns. The zero value is
// the solid-1s pattern.
type Pattern struct {
	Kind Kind
	// Index selects which of the 16 walking patterns this is; unused for
	// other kinds.
	Index int
	// Inverted selects the bitwise inverse of the base pattern.
	Inverted bool
}

// String implements fmt.Stringer, matching the names used in the paper's
// Figure 5 ("SOLID0", "CHECKERED1", "WALK1_3", ...).
func (p Pattern) String() string {
	suffix := "1"
	if p.Inverted {
		suffix = "0"
	}
	switch p.Kind {
	case KindSolid:
		return "SOLID" + suffix
	case KindCheckered:
		return "CHECKERED" + suffix
	case KindRowStripe:
		return "ROWSTRIPE" + suffix
	case KindColStripe:
		return "COLSTRIPE" + suffix
	case KindWalking:
		return fmt.Sprintf("WALK%s_%d", suffix, p.Index)
	default:
		return fmt.Sprintf("Pattern(%d)", int(p.Kind))
	}
}

// Bit returns the value (0 or 1) the pattern stores in the cell at
// (row, col).
func (p Pattern) Bit(row, col int) uint64 {
	var base uint64
	switch p.Kind {
	case KindSolid:
		base = 1
	case KindCheckered:
		// The non-inverted checkered pattern stores a 1 at (0,0).
		base = uint64(((row + col) & 1) ^ 1)
	case KindRowStripe:
		base = uint64(row & 1)
	case KindColStripe:
		base = uint64(col & 1)
	case KindWalking:
		if col%walkPeriod == p.Index%walkPeriod {
			base = 1
		} else {
			base = 0
		}
	default:
		base = 1
	}
	if p.Inverted {
		return base ^ 1
	}
	return base
}

// FillRow writes the pattern for the given row into a word-aligned bit
// vector of cols bits. cols must be a positive multiple of 64.
//
// Every pattern's column period (1, 2 or walkPeriod) divides walkPeriod, a
// power of two that divides 64, so a row is one 64-column unit repeated:
// FillRow reads one period from Bit, doubles it out to the unit and copies
// the unit across the row.
func (p Pattern) FillRow(row, cols int) ([]uint64, error) {
	if cols <= 0 || cols%64 != 0 {
		return nil, fmt.Errorf("pattern: cols must be a positive multiple of 64, got %d", cols)
	}
	var unit uint64
	for col := 0; col < walkPeriod; col++ {
		unit |= p.Bit(row, col) << uint(col)
	}
	for n := walkPeriod; n < 64; n *= 2 {
		unit |= unit << uint(n)
	}
	out := make([]uint64, cols/64)
	for i := range out {
		out[i] = unit
	}
	return out, nil
}

// Inverse returns the bitwise inverse of the pattern.
func (p Pattern) Inverse() Pattern {
	p.Inverted = !p.Inverted
	return p
}

// Solid0 is the solid-zeros pattern (the paper's best pattern for
// manufacturers A and C).
func Solid0() Pattern { return Pattern{Kind: KindSolid, Inverted: true} }

// Solid1 is the solid-ones pattern.
func Solid1() Pattern { return Pattern{Kind: KindSolid} }

// Checkered0 is the checkered pattern whose even cells store 0 (the paper's
// best pattern for manufacturer B).
func Checkered0() Pattern { return Pattern{Kind: KindCheckered, Inverted: true} }

// Checkered1 is the checkered pattern whose even cells store 1.
func Checkered1() Pattern { return Pattern{Kind: KindCheckered} }

// Walking1(k) is the k-th walking-ones pattern.
func Walking1(k int) Pattern { return Pattern{Kind: KindWalking, Index: k} }

// Walking0(k) is the k-th walking-zeros pattern.
func Walking0(k int) Pattern { return Pattern{Kind: KindWalking, Index: k, Inverted: true} }

// All returns the complete set of 40 characterization patterns in a stable
// order: solid, checkered, row stripe, column stripe, the 16 walking-1s, and
// the inverses of all of the above.
func All() []Pattern {
	var out []Pattern
	base := []Pattern{
		{Kind: KindSolid},
		{Kind: KindCheckered},
		{Kind: KindRowStripe},
		{Kind: KindColStripe},
	}
	for k := 0; k < walkPeriod; k++ {
		base = append(base, Pattern{Kind: KindWalking, Index: k})
	}
	for _, p := range base {
		out = append(out, p)
	}
	for _, p := range base {
		out = append(out, p.Inverse())
	}
	return out
}

// WalkingSet returns all 16 walking-1s patterns (inverted = false) or the 16
// walking-0s patterns (inverted = true); the paper reports their coverage as
// a single aggregated bar with min/max error bars.
func WalkingSet(inverted bool) []Pattern {
	out := make([]Pattern, 0, walkPeriod)
	for k := 0; k < walkPeriod; k++ {
		out = append(out, Pattern{Kind: KindWalking, Index: k, Inverted: inverted})
	}
	return out
}

// BestFor returns the data pattern the paper identifies as producing the
// most cells with ~50% failure probability for the given manufacturer label
// ("A", "B" or "C"): solid 0s for A and C, checkered 0s for B.
func BestFor(manufacturer string) Pattern {
	if manufacturer == "B" {
		return Checkered0()
	}
	return Solid0()
}
