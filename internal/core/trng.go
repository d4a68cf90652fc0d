package core

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/memctrl"
	"repro/internal/pattern"
)

// TRNGConfig controls the D-RaNGe generator.
type TRNGConfig struct {
	// TRCDNS is the reduced activation latency used while sampling.
	TRCDNS float64
	// Pattern is the data pattern maintained in the selected words and
	// their neighbours (line 4 of Algorithm 2).
	Pattern pattern.Pattern
}

// DefaultTRNGConfig returns the generation parameters used in the
// evaluation: tRCD 10 ns and the manufacturer's best data pattern.
func DefaultTRNGConfig(manufacturer string) TRNGConfig {
	return TRNGConfig{TRCDNS: 10.0, Pattern: pattern.BestFor(manufacturer)}
}

// TRNG is the D-RaNGe true random number generator: it continuously samples
// previously-identified RNG cells by inducing activation failures, and
// exposes the harvested bits as an io.Reader. It runs the repository's one
// Algorithm 2 core loop: one TRNG drives one controller (one simulated
// channel/rank) over its banks and overlaps their activations, so the rate
// it serves is the Figure 8 rate the estimators report. Engine composes
// several of them. A TRNG is not safe for concurrent use; Engine provides
// the thread-safe facade.
type TRNG struct {
	ctrl *memctrl.Controller
	cfg  TRNGConfig

	// phases are the two halves of an Algorithm 2 iteration, word 1 of every
	// selected bank and then word 2, in selection order. Each op's Dst
	// receives the word's reduced-latency read, sized by the constructor so
	// the harvest loop never allocates, and its Restore is the word's content
	// when the generator was prepared, written back after every sample.
	phases [2][]memctrl.SampleOp
	// cols[half][i] are the bit positions of the RNG cells within the word
	// of phases[half][i].
	cols [2][][]int

	// bits holds harvested bits, packed 64 per word, not yet consumed.
	bits bitBuffer

	bitsGenerated int64
}

// NewTRNG prepares a D-RaNGe generator over the given bank selections
// (lines 2–6 of Algorithm 2): it writes the data pattern to the chosen DRAM
// words and their neighbouring rows, then captures the restore values and
// the per-word RNG-cell positions.
func NewTRNG(ctrl *memctrl.Controller, selections []BankSelection, cfg TRNGConfig) (*TRNG, error) {
	if ctrl == nil {
		return nil, fmt.Errorf("core: nil controller")
	}
	g := ctrl.Device().Geometry()
	for _, s := range selections {
		// Line 4: write the data pattern to the chosen DRAM words and their
		// neighbouring cells (we write the full rows and the adjacent rows).
		for _, w := range []WordRef{s.Word1, s.Word2} {
			for _, row := range []int{w.Row - 1, w.Row, w.Row + 1} {
				if row < 0 || row >= g.RowsPerBank {
					continue
				}
				data, err := cfg.Pattern.FillRow(row, g.ColsPerRow)
				if err != nil {
					return nil, err
				}
				if err := ctrl.Device().WriteRow(s.Bank, row, data); err != nil {
					return nil, err
				}
			}
		}
	}
	return newTRNG(ctrl, selections, cfg)
}

// newTRNG prepares a generator over the selections without writing any
// data pattern: each word's current content becomes its restore value. The
// estimators use it directly, since their timing does not depend on data.
func newTRNG(ctrl *memctrl.Controller, selections []BankSelection, cfg TRNGConfig) (*TRNG, error) {
	if len(selections) == 0 {
		return nil, fmt.Errorf("core: no bank selections")
	}
	if cfg.TRCDNS <= 0 || cfg.TRCDNS > ctrl.Params().TRCD {
		return nil, fmt.Errorf("core: generation tRCD %v ns outside (0, %v]", cfg.TRCDNS, ctrl.Params().TRCD)
	}
	t := &TRNG{ctrl: ctrl, cfg: cfg}
	seen := make(map[int]bool, len(selections))
	for _, s := range selections {
		if s.Bits() == 0 {
			return nil, fmt.Errorf("core: bank %d selection has no RNG cells", s.Bank)
		}
		if s.Word1.Row == s.Word2.Row {
			return nil, fmt.Errorf("core: bank %d selection uses a single row %d", s.Bank, s.Word1.Row)
		}
		if seen[s.Bank] {
			return nil, fmt.Errorf("core: bank %d selected twice", s.Bank)
		}
		seen[s.Bank] = true
		for half, w := range []WordRef{s.Word1, s.Word2} {
			op, cols, err := t.prepareWord(s.Bank, w)
			if err != nil {
				return nil, err
			}
			t.phases[half] = append(t.phases[half], op)
			t.cols[half] = append(t.cols[half], cols)
		}
	}
	return t, nil
}

// prepareWord returns the sample op of word w of bank and the positions of
// its RNG cells within the word.
func (t *TRNG) prepareWord(bank int, w WordRef) (memctrl.SampleOp, []int, error) {
	g := t.ctrl.Device().Geometry()
	if w.WordIdx < 0 || w.WordIdx >= g.WordsPerRow() || w.Row < 0 || w.Row >= g.RowsPerBank {
		return memctrl.SampleOp{}, nil, fmt.Errorf("core: word %+v outside device geometry", w)
	}
	nw := g.WordBits / 64
	rowData, err := t.ctrl.Device().ReadRowRaw(bank, w.Row)
	if err != nil {
		return memctrl.SampleOp{}, nil, err
	}
	op := memctrl.SampleOp{
		Bank:    bank,
		Row:     w.Row,
		Word:    w.WordIdx,
		Dst:     make([]uint64, nw),
		Restore: append([]uint64(nil), rowData[w.WordIdx*nw:(w.WordIdx+1)*nw]...),
	}
	var cols []int
	for _, addr := range addrSetForSelection(w) {
		if addr.Bank != bank {
			return memctrl.SampleOp{}, nil, fmt.Errorf("core: RNG cell %+v does not belong to bank %d", addr, bank)
		}
		col := addr.Col - w.WordIdx*g.WordBits
		if col < 0 || col >= g.WordBits {
			return memctrl.SampleOp{}, nil, fmt.Errorf("core: RNG cell %+v is not inside word %d", addr, w.WordIdx)
		}
		cols = append(cols, col)
	}
	sort.Ints(cols)
	return op, cols, nil
}

// Banks returns the number of banks the generator samples in parallel.
func (t *TRNG) Banks() int { return len(t.phases[0]) }

// BitsPerIteration returns the number of random bits harvested by one pass
// of the Algorithm 2 core loop over all selected banks.
func (t *TRNG) BitsPerIteration() int {
	n := 0
	for _, half := range t.cols {
		for _, cols := range half {
			n += len(cols)
		}
	}
	return n
}

// BitsGenerated returns the total number of random bits harvested so far.
func (t *TRNG) BitsGenerated() int64 { return t.bitsGenerated }

// harvest runs Algorithm 2's core loop until at least n bits are queued.
// Each iteration samples word 1 of every bank (lines 8–11), then word 2
// (lines 12–15), each half as one memctrl.SamplePhase: every ACT, then every
// reduced-latency RD, then every restoring WR, so the banks' activation
// latencies overlap (the bank-level parallelism behind Figure 8). Each bank
// still sees its own commands in the order ACT, RD, WR, and the simulated
// device takes each word's sample as one call. The bits are queued bank by
// bank, word 1 before word 2.
//
//drange:noalloc
func (t *TRNG) harvest(n int) error {
	if err := t.ctrl.SetReducedTRCD(t.cfg.TRCDNS); err != nil {
		return err
	}
	defer t.ctrl.ResetTRCD()
	for t.bits.Len() < n {
		for half := range t.phases {
			if err := t.ctrl.SamplePhase(t.phases[half]); err != nil {
				return err
			}
		}
		for i := range t.phases[0] {
			for half := range t.phases {
				got, cols := t.phases[half][i].Dst, t.cols[half][i]
				for _, col := range cols {
					t.bits.Append(byte((got[col/64] >> uint(col%64)) & 1))
				}
				t.bitsGenerated += int64(len(cols))
			}
		}
	}
	return nil
}

// ReadBits returns n random bits, one bit per returned byte (values 0 or 1).
func (t *TRNG) ReadBits(n int) ([]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: bit count must be positive, got %d", n)
	}
	if err := t.harvest(n); err != nil {
		return nil, err
	}
	return t.bits.PopBits(n), nil
}

// ReadPacked fills p with random bytes straight from the packed bit queue —
// the same byte encoding as Read, with no intermediate bit-per-byte slice and
// no allocation in steady state.
//
//drange:noalloc
func (t *TRNG) ReadPacked(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if len(p) > math.MaxInt/8 {
		return fmt.Errorf("core: read of %d bytes overflows the bit counter", len(p))
	}
	if err := t.harvest(len(p) * 8); err != nil {
		return err
	}
	t.bits.PopPacked(p)
	return nil
}

// Read fills p with random bytes, implementing io.Reader. It never returns a
// short read except on error.
func (t *TRNG) Read(p []byte) (int, error) {
	if err := t.ReadPacked(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Uint64 returns a 64-bit random value.
func (t *TRNG) Uint64() (uint64, error) {
	var buf [8]byte
	if _, err := t.Read(buf[:]); err != nil {
		return 0, err
	}
	return BEUint64(buf), nil
}

var _ io.Reader = (*TRNG)(nil)

// maxSamplePrealloc bounds the up-front allocation of SampleCell's output
// buffer (one byte per sample); larger requests grow incrementally.
const maxSamplePrealloc = 1 << 20

// SampleCell reads a single identified RNG cell n times with the reduced
// activation latency and returns its value stream (one bit per byte). This
// is the procedure behind Table 1: the paper samples each identified RNG
// cell one million times and feeds the resulting bitstream to the NIST test
// suite.
func SampleCell(ctrl *memctrl.Controller, cell RNGCell, pat pattern.Pattern, trcdNS float64, n int) ([]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: sample count must be positive, got %d", n)
	}
	g := ctrl.Device().Geometry()
	addr := cell.Addr
	if addr.Bank < 0 || addr.Bank >= g.Banks || addr.Row < 0 || addr.Row >= g.RowsPerBank ||
		addr.Col < 0 || addr.Col >= g.ColsPerRow {
		return nil, fmt.Errorf("core: cell %+v outside device geometry", addr)
	}
	wordIdx := addr.Col / g.WordBits
	nw := g.WordBits / 64

	// Maintain the data pattern in the cell's row and neighbours.
	for _, row := range []int{addr.Row - 1, addr.Row, addr.Row + 1} {
		if row < 0 || row >= g.RowsPerBank {
			continue
		}
		data, err := pat.FillRow(row, g.ColsPerRow)
		if err != nil {
			return nil, err
		}
		if err := ctrl.Device().WriteRow(addr.Bank, row, data); err != nil {
			return nil, err
		}
	}
	rowData, err := pat.FillRow(addr.Row, g.ColsPerRow)
	if err != nil {
		return nil, err
	}
	original := append([]uint64(nil), rowData[wordIdx*nw:(wordIdx+1)*nw]...)

	if err := ctrl.SetReducedTRCD(trcdNS); err != nil {
		return nil, err
	}
	defer ctrl.ResetTRCD()

	colInWord := addr.Col - wordIdx*g.WordBits
	// n is caller-controlled; cap the prealloc and let append grow the slice
	// so an oversized request cannot allocate unbounded memory up front.
	prealloc := n
	if prealloc > maxSamplePrealloc {
		prealloc = maxSamplePrealloc
	}
	out := make([]byte, 0, prealloc)
	// Each sample is one op: reduced-latency ACT and READ, the restoring
	// WRITE, and the PRE that closes the row for the next ACT.
	sample := []memctrl.SampleOp{{Bank: addr.Bank, Row: addr.Row, Word: wordIdx, Dst: make([]uint64, nw), Restore: original, Close: true}}
	got := sample[0].Dst
	for i := 0; i < n; i++ {
		if err := ctrl.SamplePhase(sample); err != nil {
			return nil, err
		}
		out = append(out, byte((got[colInWord/64]>>uint(colInWord%64))&1))
	}
	return out, nil
}
