package drange

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/profiler"
)

// Geometry describes the addressable organisation of a simulated DRAM device
// as seen through the public API. It mirrors the internal device geometry so
// that no internal type appears in an exported signature; the zero value
// selects the default LPDDR4 geometry.
type Geometry struct {
	// Banks is the number of banks in the device.
	Banks int `json:"banks"`
	// RowsPerBank is the number of DRAM rows per bank.
	RowsPerBank int `json:"rows_per_bank"`
	// ColsPerRow is the number of cells (bits) in one DRAM row.
	ColsPerRow int `json:"cols_per_row"`
	// SubarrayRows is the number of rows sharing one set of local sense
	// amplifiers.
	SubarrayRows int `json:"subarray_rows"`
	// WordBits is the number of bits transferred by one READ burst.
	WordBits int `json:"word_bits"`
}

// IsZero reports whether the geometry is entirely unset.
func (g Geometry) IsZero() bool { return g == Geometry{} }

// wordsPerRow returns the number of DRAM words in one row (0 when unset).
func (g Geometry) wordsPerRow() int {
	if g.WordBits <= 0 {
		return 0
	}
	return g.ColsPerRow / g.WordBits
}

func (g Geometry) internal() dram.Geometry {
	return dram.Geometry{
		Banks:        g.Banks,
		RowsPerBank:  g.RowsPerBank,
		ColsPerRow:   g.ColsPerRow,
		SubarrayRows: g.SubarrayRows,
		WordBits:     g.WordBits,
	}
}

func geometryFromInternal(g dram.Geometry) Geometry {
	return Geometry{
		Banks:        g.Banks,
		RowsPerBank:  g.RowsPerBank,
		ColsPerRow:   g.ColsPerRow,
		SubarrayRows: g.SubarrayRows,
		WordBits:     g.WordBits,
	}
}

// Cell is one identified RNG cell: a DRAM cell whose reduced-latency reads
// are statistically uniform (Section 6.1 of the paper).
type Cell struct {
	// Bank, Row and Col locate the cell in the device.
	Bank int `json:"bank"`
	Row  int `json:"row"`
	Col  int `json:"col"`
	// Word is the index of the DRAM word containing the cell.
	Word int `json:"word"`
	// FailProbability is the activation-failure probability observed during
	// identification.
	FailProbability float64 `json:"fail_probability"`
	// SymbolEntropy is the Shannon entropy (bits per symbol) of the 3-bit
	// symbol distribution observed during identification.
	SymbolEntropy float64 `json:"symbol_entropy"`
}

func cellFromCore(c core.RNGCell) Cell {
	return Cell{
		Bank:            c.Addr.Bank,
		Row:             c.Addr.Row,
		Col:             c.Addr.Col,
		Word:            c.WordIdx,
		FailProbability: c.Fprob,
		SymbolEntropy:   c.SymbolEntropy,
	}
}

func (c Cell) core() core.RNGCell {
	return core.RNGCell{
		Addr:          profiler.CellAddr{Bank: c.Bank, Row: c.Row, Col: c.Col},
		WordIdx:       c.Word,
		Fprob:         c.FailProbability,
		SymbolEntropy: c.SymbolEntropy,
	}
}

// WordSelection is one DRAM word chosen for generation and the columns of
// the RNG cells it contains.
type WordSelection struct {
	Row  int `json:"row"`
	Word int `json:"word"`
	// Cols lists the absolute column indices (within the row) of the RNG
	// cells harvested from this word, in ascending order.
	Cols []int `json:"cols"`
}

// Selection is the per-bank choice Algorithm 2 requires: the two DRAM words
// in distinct rows with the highest density of RNG cells (Section 6.2).
type Selection struct {
	Bank  int           `json:"bank"`
	Word1 WordSelection `json:"word1"`
	Word2 WordSelection `json:"word2"`
}

// Bits returns the number of RNG cells across the two selected words: the
// bank's TRNG data rate per core-loop iteration.
func (s Selection) Bits() int { return len(s.Word1.Cols) + len(s.Word2.Cols) }

func wordSelectionFromCore(w core.WordRef) WordSelection {
	cols := make([]int, 0, len(w.RNGCells))
	for _, c := range w.RNGCells {
		cols = append(cols, c.Addr.Col)
	}
	sort.Ints(cols)
	return WordSelection{Row: w.Row, Word: w.WordIdx, Cols: cols}
}

func selectionFromCore(s core.BankSelection) Selection {
	return Selection{
		Bank:  s.Bank,
		Word1: wordSelectionFromCore(s.Word1),
		Word2: wordSelectionFromCore(s.Word2),
	}
}

// cellKey indexes a profile's cell list by location.
type cellKey struct{ bank, row, col int }

// coreSelections rebuilds the internal bank selections from serialized form,
// resolving every selected column against the profile's cell list.
func coreSelections(cells []Cell, sels []Selection) ([]core.BankSelection, error) {
	byAddr := make(map[cellKey]Cell, len(cells))
	for _, c := range cells {
		byAddr[cellKey{c.Bank, c.Row, c.Col}] = c
	}
	wordRef := func(bank int, w WordSelection) (core.WordRef, error) {
		ref := core.WordRef{Bank: bank, Row: w.Row, WordIdx: w.Word}
		for _, col := range w.Cols {
			c, ok := byAddr[cellKey{bank, w.Row, col}]
			if !ok {
				return core.WordRef{}, fmt.Errorf("drange: selection references cell (bank %d, row %d, col %d) absent from the profile's cell list", bank, w.Row, col)
			}
			ref.RNGCells = append(ref.RNGCells, c.core())
		}
		return ref, nil
	}
	out := make([]core.BankSelection, 0, len(sels))
	for _, s := range sels {
		w1, err := wordRef(s.Bank, s.Word1)
		if err != nil {
			return nil, err
		}
		w2, err := wordRef(s.Bank, s.Word2)
		if err != nil {
			return nil, err
		}
		out = append(out, core.BankSelection{Bank: s.Bank, Word1: w1, Word2: w2})
	}
	return out, nil
}

// Density is the Figure 7 data for one bank: how many DRAM words contain
// exactly n RNG cells.
type Density struct {
	Bank int
	// WordsWithNCells[n] is the number of words containing exactly n RNG
	// cells (n ≥ 1).
	WordsWithNCells map[int]int
	// MaxCellsPerWord is the largest number of RNG cells found in one word.
	MaxCellsPerWord int
	// TotalRNGCells is the total number of RNG cells in the bank.
	TotalRNGCells int
}

// ShardStats is the throughput/latency accounting of one harvesting shard,
// measured in simulated DRAM time.
type ShardStats struct {
	Shard int `json:"shard"`
	// Banks is the number of banks the shard samples.
	Banks int `json:"banks"`
	// BitsPerIteration is the shard's data rate per core-loop pass.
	BitsPerIteration int `json:"bits_per_iteration"`
	// BitsHarvested counts bits extracted from the DRAM (buffered included).
	BitsHarvested int64 `json:"bits_harvested"`
	// BitsDelivered counts bits consumers drained from this shard, before
	// any post-processing chain.
	BitsDelivered int64 `json:"bits_delivered"`
	// SimCycles and SimNS are the shard controller's simulated time spent.
	SimCycles int64   `json:"sim_cycles"`
	SimNS     float64 `json:"sim_ns"`
	// ThroughputMbps is the shard's harvest rate in simulated time.
	ThroughputMbps float64 `json:"throughput_mbps"`
	// Latency64NS is the shard's simulated time to produce 64 bits.
	Latency64NS float64 `json:"latency_64_ns"`
}

// Stats is the per-shard and aggregate accounting of a Source. For a sharded
// Source the aggregate throughput is the sum of the shard rates, mirroring
// the paper's multi-channel scaling (Section 7.3, Table 2).
type Stats struct {
	Shards []ShardStats `json:"shards"`
	// Devices is the per-device breakdown of a Pool (nil for single-device
	// Sources). Its shard lists repeat the Shards entries grouped by device,
	// with per-device shard numbering.
	Devices []PoolDeviceStats `json:"devices,omitempty"`
	// BitsHarvested counts bits extracted from the DRAM across all shards.
	BitsHarvested int64 `json:"bits_harvested"`
	// BitsDelivered counts bits callers actually received — after any
	// post-processing chain, so it lags the per-shard drain counts by the
	// chain's discard rate.
	BitsDelivered           int64   `json:"bits_delivered"`
	AggregateThroughputMbps float64 `json:"aggregate_throughput_mbps"`
	Latency64NS             float64 `json:"latency_64_ns"`
	// Health is the online health-test accounting (nil unless
	// WithHealthTests is attached). For a Pool it aggregates the member
	// monitors; the per-device breakdown sits in each PoolDeviceStats.
	Health *HealthStats `json:"health,omitempty"`
	// TierRaw and TierDRBG count the serving requests and bytes per tier of
	// the two-tier read path: ReadRaw (and Read/ReadBits/Uint64 without
	// WithDRBG) serves the raw tier, Read/ReadBits/Uint64 with WithDRBG the
	// DRBG tier. Both are zero until the corresponding tier serves. Only
	// successful reads count: a read that returns (0, err) leaves both
	// untouched, so over byte-aligned requests the tier byte counters sum to
	// exactly BitsDelivered/8.
	TierRaw  TierStats `json:"tier_raw"`
	TierDRBG TierStats `json:"tier_drbg"`
	// DRBG is the DRBG-tier accounting (nil unless WithDRBG is attached).
	// For a Pool it aggregates the member instances; the per-device
	// breakdown sits in each PoolDeviceStats.
	DRBG *DRBGStats `json:"drbg,omitempty"`
	// Lifecycle aggregates the member lifecycle of a self-healing Pool (nil
	// unless WithRecharacterization is attached).
	Lifecycle *LifecycleStats `json:"lifecycle,omitempty"`
}

// LifecycleStats aggregates the member lifecycle state machine of a
// self-healing Pool: how many members sit in each state right now, and the
// cumulative transition counters.
type LifecycleStats struct {
	// Serving..Evicted count members currently in each lifecycle state.
	Serving          int `json:"serving"`
	Quarantined      int `json:"quarantined"`
	Recharacterizing int `json:"recharacterizing"`
	Readmitting      int `json:"readmitting"`
	Evicted          int `json:"evicted"`
	// Readmissions counts successful quarantine→serving round trips;
	// Recharacterizations counts re-characterization passes started, and
	// RecharFailures the passes that did not end in a readmission.
	Readmissions        int64 `json:"readmissions"`
	Recharacterizations int64 `json:"recharacterizations"`
	RecharFailures      int64 `json:"rechar_failures"`
}

// TierStats counts the serving traffic of one tier of the two-tier read
// path.
type TierStats struct {
	// Reads counts serving calls (Read/ReadRaw/ReadBits/Uint64) answered by
	// this tier.
	Reads int64 `json:"reads"`
	// Bytes counts bytes this tier delivered (bit-granular reads round up
	// to whole bytes).
	Bytes int64 `json:"bytes"`
}

// CreditStats is the entropy credit ledger of one DRBG-backed producer:
// CreditedBits counts raw bits that passed a full online health-test window,
// DebitedBits counts screened bits consumed as DRBG seed material, and
// BalanceBits is their difference — screened entropy harvested but not yet
// folded into DRBG state. A negative balance means a seed was consumed
// before its screening window completed (credit lands in whole-window
// quanta).
type CreditStats struct {
	CreditedBits int64 `json:"credited_bits"`
	DebitedBits  int64 `json:"debited_bits"`
	BalanceBits  int64 `json:"balance_bits"`
}

// DRBGStats is the accounting of one DRBG tier (or, aggregated, of a pool's
// member DRBGs).
type DRBGStats struct {
	// Algorithm names the construction ("chacha20" or "ctr-aes256").
	Algorithm string `json:"algorithm"`
	// Reseeds counts seedings, the open-time instantiation included;
	// Generates counts served DRBG requests (one Read may span several when
	// it exceeds MaxRequestBytes).
	Reseeds   int64 `json:"reseeds"`
	Generates int64 `json:"generates"`
	// PredictionResistance reports whether every request reseeds first.
	PredictionResistance bool `json:"prediction_resistance"`
	// Credit is the entropy credit ledger.
	Credit CreditStats `json:"credit"`
}

// PoolDeviceStats is the accounting and health state of one device of a
// Pool.
type PoolDeviceStats struct {
	// Device is the index into the profiles slice passed to OpenPool.
	Device int `json:"device"`
	// Serial is the device serial from its profile.
	Serial uint64 `json:"serial"`
	// Backend is the backend the device was opened through.
	Backend string `json:"backend"`
	// Healthy reports whether the device is still serving reads; Evicted
	// and Reason describe why not (Reason is also set, with Healthy still
	// true, when the last remaining device violates the health policy but
	// is retained). State is the full lifecycle state: "serving",
	// "quarantined", "recharacterizing", "readmitting" or "evicted" —
	// Healthy and Evicted are redundant with it but kept for compatibility.
	Healthy bool   `json:"healthy"`
	Evicted bool   `json:"evicted"`
	State   string `json:"state"`
	Reason  string `json:"reason,omitempty"`
	// Readmissions, Recharacterizations and RecharFailures count this
	// device's lifecycle transitions under WithRecharacterization;
	// LastRecharMS is the wall-clock duration of the most recent
	// re-characterization pass, and ProfileDeltas the number of versioned
	// deltas the device's (possibly re-characterized) profile carries.
	Readmissions        int64   `json:"readmissions"`
	Recharacterizations int64   `json:"recharacterizations"`
	RecharFailures      int64   `json:"rechar_failures"`
	LastRecharMS        float64 `json:"last_rechar_ms,omitempty"`
	ProfileDeltas       int     `json:"profile_deltas,omitempty"`
	// BiasDelta is |ones-fraction − 0.5| over the last completed health
	// window of this device's harvested bits.
	BiasDelta float64 `json:"bias_delta"`
	// TemperatureC is the device's last observed temperature.
	TemperatureC float64 `json:"temperature_c"`
	// BitsHarvested/BitsDelivered count bits the device's engine extracted
	// and bits the pool handed to callers from this device.
	BitsHarvested int64 `json:"bits_harvested"`
	BitsDelivered int64 `json:"bits_delivered"`
	// ThroughputMbps and Latency64NS are the device engine's aggregate rate
	// in simulated DRAM time.
	ThroughputMbps float64 `json:"throughput_mbps"`
	Latency64NS    float64 `json:"latency_64_ns"`
	// Shards is the device's per-shard breakdown.
	Shards []ShardStats `json:"shards"`
	// Health is this device's online health-test accounting (nil unless
	// WithHealthTests is attached to the pool).
	Health *HealthStats `json:"health,omitempty"`
	// DRBG is this device's DRBG instance and entropy credit accounting
	// (nil unless WithDRBG is attached to the pool).
	DRBG *DRBGStats `json:"drbg,omitempty"`
}

func statsFromEngine(st core.EngineStats) Stats {
	out := Stats{
		Shards:                  make([]ShardStats, len(st.Shards)),
		BitsHarvested:           st.BitsHarvested,
		BitsDelivered:           st.BitsDelivered,
		AggregateThroughputMbps: st.AggregateThroughputMbps,
		Latency64NS:             st.Latency64NS,
	}
	for i, s := range st.Shards {
		out.Shards[i] = ShardStats{
			Shard:            s.Shard,
			Banks:            s.Banks,
			BitsPerIteration: s.BitsPerIteration,
			BitsHarvested:    s.BitsHarvested,
			BitsDelivered:    s.BitsDelivered,
			SimCycles:        s.SimCycles,
			SimNS:            s.SimNS,
			ThroughputMbps:   s.ThroughputMbps,
			Latency64NS:      s.Latency64NS,
		}
	}
	return out
}

// Throughput is the measured timing of the Algorithm 2 core loop, the data
// behind Figure 8 and Equation 1 of the paper.
type Throughput struct {
	// Banks is the number of banks sampled in parallel.
	Banks int
	// BitsPerIteration is the number of random bits per core-loop pass.
	BitsPerIteration int
	// NSPerIteration is the simulated time of one core-loop pass.
	NSPerIteration float64
	// ThroughputMbps is the single-channel throughput in Mb/s.
	ThroughputMbps float64
}

// NISTResult is the outcome of one NIST SP 800-22 test over a bitstream.
type NISTResult struct {
	// Name is the test name as reported in Table 1 of the paper.
	Name string
	// PValue is the headline p-value (the minimum when the test produces
	// several).
	PValue float64
	// Applicable is false when the bitstream was too short for the test.
	Applicable bool
	// Pass reports whether every p-value met the significance level; it is
	// false for inapplicable results.
	Pass bool
	// Detail carries an optional human-readable note.
	Detail string
}
