package dram

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/timing"
)

// Config describes one simulated DRAM device.
type Config struct {
	// Serial is the device serial number; it seeds the procedural process
	// variation, so two devices with different serials have different (but
	// individually stable) weak cells.
	Serial uint64

	// Manufacturer selects the built-in manufacturer profile. Ignored when
	// Profile is non-nil.
	Manufacturer Manufacturer

	// Profile optionally overrides the built-in manufacturer profile.
	Profile *Profile

	// Geometry describes the device organisation. The zero value selects
	// DefaultLPDDR4Geometry or DefaultDDR3Geometry based on Timing.Type.
	Geometry Geometry

	// Timing is the JEDEC timing parameter set of the device. The zero
	// value selects LPDDR4-3200 defaults.
	Timing timing.Params

	// Noise is the per-access noise source. Nil selects a PhysicalNoise
	// source (OS entropy).
	Noise NoiseSource
}

// Device is one simulated DRAM device (a channel's worth of chips operating
// in lock step, as seen by a memory controller). It models row-buffer
// semantics, activation-failure injection when activated with a reduced
// tRCD, per-cell process variation, data-pattern coupling and temperature
// dependence.
//
// Device methods are safe for concurrent use by multiple goroutines; the
// paper exploits bank-level parallelism and callers may drive different banks
// concurrently. Every command takes d.mu once; SampleWord applies a whole
// sample of one word — Algorithm 2's PRE, ACT, RD, WR, or Algorithm 1's
// refresh, ACT, RD, restore and PRE — under that one acquisition, and the
// noise stream of the bank is locked separately, once per injected word.
type Device struct {
	serial  uint64
	profile Profile
	geom    Geometry
	timing  timing.Params
	noise   NoiseSource
	// wordsPerRow and wordU64s cache geom.WordsPerRow() and geom.wordU64s(),
	// which every column command's checks would otherwise divide for.
	wordsPerRow, wordU64s int

	mu           sync.Mutex
	temperatureC float64        // drange:guardedby mu
	banks        []*bankStorage // drange:guardedby mu

	// weakCols caches, per bank and subarray, the weak column indices
	// grouped by DRAM word, so failure injection only inspects candidate
	// cells.
	weakCols map[weakKey][][]int // drange:guardedby mu

	// chars caches the procedurally derived per-cell character, keyed by
	// packed (bank, row, col). The character is a pure function of the
	// device identity, so the cache is transparent, as are the rows'
	// injection tables (rowStorage.inject).
	chars map[uint64]CellCharacter // drange:guardedby mu

	stats DeviceStats // drange:guardedby mu
}

// injectInfo is everything failure injection needs about one DRAM word: the
// weak column indices and, aligned with them, the cell characters and
// first-draw table.
type injectInfo struct {
	cols  []int
	chars []CellCharacter
	// vulnerable[i] is the stored value at which cell i can fail, so the
	// kernel skips a cell storing the other value without loading its
	// character.
	vulnerable []uint8
	// firstDraws holds one entry per (weak cell i, differing-neighbour count
	// n) at i*neighbourCounts+n, filled on first use for the temperature and
	// tRCD recorded beside it and cleared when either changes. One word per
	// entry keeps the table small next to the row data.
	firstDraws    []firstDraw
	tempC, trcdNS float64
}

// neighbourCounts is the number of differing-neighbour counts a cell can
// see: 0–4 of left, right, above and below.
const neighbourCounts = 5

// DeviceStats counts the operations a device has performed; useful for
// asserting experimental methodology in tests and for energy accounting
// cross-checks.
type DeviceStats struct {
	Activates      int64
	Precharges     int64
	Reads          int64
	Writes         int64
	Refreshes      int64
	InjectedFlips  int64
	ReducedTRCDAct int64
}

type weakKey struct {
	bank, sub int
}

// bankStorage holds the mutable state of one bank: lazily-allocated row data
// and injection data, and the row-buffer state. rows is direct-indexed by
// row: two slice headers per row cost kilobytes while keeping the per-access
// lookup a bounds-checked load instead of a map probe.
type bankStorage struct {
	rows []rowStorage

	openRow            int
	open               bool
	activatedTRCD      float64
	firstAccessPending bool
}

// rowStorage is the lazily materialised state of one row (nil = not yet).
type rowStorage struct {
	data []uint64
	// inject[wordIdx] is the injection data of a word, built on its first
	// injection; the slice is allocated on the first injection in the row.
	// Serving re-reads two words per bank forever and characterization
	// walks every word of its region; both find a word's data beside the
	// row's data, whose header an injection has just loaded.
	inject []*injectInfo
}

// NewDevice constructs a simulated device from cfg.
//
//drange:holds mu construction: the device is not shared until NewDevice returns
func NewDevice(cfg Config) (*Device, error) {
	prof := Profile{}
	if cfg.Profile != nil {
		prof = *cfg.Profile
	} else {
		m := cfg.Manufacturer
		if m == "" {
			m = ManufacturerA
		}
		p, err := ProfileFor(m)
		if err != nil {
			return nil, err
		}
		prof = p
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}

	tp := cfg.Timing
	if tp.ClockNS == 0 {
		tp = timing.NewLPDDR4()
	}
	if err := tp.Validate(); err != nil {
		return nil, err
	}

	geom := cfg.Geometry
	if geom.Banks == 0 {
		if tp.Type == timing.DDR3 {
			geom = DefaultDDR3Geometry()
		} else {
			geom = DefaultLPDDR4Geometry()
		}
	}
	if err := geom.Validate(); err != nil {
		return nil, err
	}

	// The character cache packs (bank, row, col) into 64-bit keys
	// (16/24/24 bits); reject geometries the packing cannot address rather
	// than silently colliding cache entries.
	if geom.Banks >= 1<<16 || geom.RowsPerBank >= 1<<24 || geom.ColsPerRow >= 1<<24 {
		return nil, fmt.Errorf("dram: geometry %d banks x %d rows x %d cols exceeds the addressable simulation bounds (2^16 banks, 2^24 rows, 2^24 cols)",
			geom.Banks, geom.RowsPerBank, geom.ColsPerRow)
	}

	noise := cfg.Noise
	if noise == nil {
		noise = NewPhysicalNoise()
	}

	d := &Device{
		serial:       cfg.Serial,
		profile:      prof,
		geom:         geom,
		timing:       tp,
		noise:        noise,
		wordsPerRow:  geom.WordsPerRow(),
		wordU64s:     geom.wordU64s(),
		temperatureC: BaselineTemperatureC,
		banks:        make([]*bankStorage, geom.Banks),
		weakCols:     make(map[weakKey][][]int),
		chars:        make(map[uint64]CellCharacter),
	}
	for i := range d.banks {
		d.banks[i] = &bankStorage{
			rows:    make([]rowStorage, geom.RowsPerBank),
			openRow: -1,
		}
	}
	return d, nil
}

// Serial returns the device serial number.
func (d *Device) Serial() uint64 { return d.serial }

// Manufacturer returns the manufacturer of the device.
func (d *Device) Manufacturer() Manufacturer { return d.profile.Manufacturer }

// Profile returns the device's manufacturing profile.
func (d *Device) Profile() Profile { return d.profile }

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// Timing returns the device's JEDEC timing parameters.
func (d *Device) Timing() timing.Params { return d.timing }

// Stats returns a snapshot of the device's operation counters.
func (d *Device) Stats() DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// SetTemperature sets the DRAM temperature in degrees Celsius.
func (d *Device) SetTemperature(c float64) error {
	if c < -40 || c > 150 {
		return fmt.Errorf("dram: temperature %v °C outside plausible operating range", c)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.temperatureC = c
	return nil
}

// Temperature returns the current DRAM temperature in degrees Celsius.
func (d *Device) Temperature() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.temperatureC
}

// CellCharacter returns the manufacturing character of the cell at
// (bank, row, col).
func (d *Device) CellCharacter(bank, row, col int) (CellCharacter, error) {
	if err := d.checkCell(bank, row, col); err != nil {
		return CellCharacter{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cellCharacterLocked(bank, row, col), nil
}

// cellCharacterLocked returns the cached character of (bank, row, col),
// deriving and caching it on first touch. Callers hold d.mu.
func (d *Device) cellCharacterLocked(bank, row, col int) CellCharacter {
	key := uint64(bank)<<48 | uint64(row)<<24 | uint64(col)
	if c, ok := d.chars[key]; ok {
		return c
	}
	c := cellCharacter(d.serial, bank, row, col, d.geom, d.profile)
	d.chars[key] = c
	return c
}

// injectInfoLocked returns (computing and caching if needed) the injection
// data of DRAM word (bank, row, wordIdx). Callers hold d.mu.
func (d *Device) injectInfoLocked(bank, row, wordIdx int) *injectInfo {
	r := &d.banks[bank].rows[row]
	words := r.inject
	if words == nil {
		words = make([]*injectInfo, d.wordsPerRow)
		r.inject = words
	}
	if info := words[wordIdx]; info != nil {
		return info
	}
	weak := d.weakColumnsLocked(bank, d.subarrayOf(row))[wordIdx]
	// trcdNS stays 0, which no activation uses, so the first injection
	// records its conditions over the still-empty table.
	info := &injectInfo{
		cols:       weak,
		chars:      make([]CellCharacter, len(weak)),
		vulnerable: make([]uint8, len(weak)),
		firstDraws: make([]firstDraw, neighbourCounts*len(weak)),
	}
	for i, col := range weak {
		c := cellCharacter(d.serial, bank, row, col, d.geom, d.profile)
		info.chars[i] = c
		if c.VulnerableWhenStoring(1) {
			info.vulnerable[i] = 1
		}
	}
	words[wordIdx] = info
	return info
}

// WeakColumnsInWord returns the column indices (absolute within the row) of
// weak columns that fall inside DRAM word wordIdx for rows of the subarray
// containing row.
func (d *Device) WeakColumnsInWord(bank, row, wordIdx int) ([]int, error) {
	if bank < 0 || bank >= d.geom.Banks {
		return nil, fmt.Errorf("dram: bank %d out of range [0,%d)", bank, d.geom.Banks)
	}
	if row < 0 || row >= d.geom.RowsPerBank {
		return nil, fmt.Errorf("dram: row %d out of range [0,%d)", row, d.geom.RowsPerBank)
	}
	if err := d.checkWord(wordIdx); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	sub := d.subarrayOf(row)
	return d.weakColumnsLocked(bank, sub)[wordIdx], nil
}

func (d *Device) subarrayOf(row int) int {
	subRows := d.profile.SubarrayRows
	if subRows <= 0 {
		subRows = d.geom.SubarrayRows
	}
	return row / subRows
}

// weakColumnsLocked returns (computing and caching if needed) the weak column
// indices of (bank, subarray), grouped by DRAM word index.
func (d *Device) weakColumnsLocked(bank, sub int) [][]int {
	key := weakKey{bank, sub}
	if cols, ok := d.weakCols[key]; ok {
		return cols
	}
	words := d.wordsPerRow
	grouped := make([][]int, words)
	for col := 0; col < d.geom.ColsPerRow; col++ {
		if columnIsWeak(d.serial, bank, sub, col, d.profile) {
			w := col / d.geom.WordBits
			grouped[w] = append(grouped[w], col)
		}
	}
	d.weakCols[key] = grouped
	return grouped
}

func (d *Device) checkBank(bank int) error {
	if bank < 0 || bank >= d.geom.Banks {
		return fmt.Errorf("dram: bank %d out of range [0,%d)", bank, d.geom.Banks)
	}
	return nil
}

func (d *Device) checkRow(bank, row int) error {
	if err := d.checkBank(bank); err != nil {
		return err
	}
	if row < 0 || row >= d.geom.RowsPerBank {
		return fmt.Errorf("dram: row %d out of range [0,%d)", row, d.geom.RowsPerBank)
	}
	return nil
}

func (d *Device) checkWord(wordIdx int) error {
	if wordIdx < 0 || wordIdx >= d.wordsPerRow {
		return fmt.Errorf("dram: word %d out of range [0,%d)", wordIdx, d.wordsPerRow)
	}
	return nil
}

func (d *Device) checkCell(bank, row, col int) error {
	if err := d.checkRow(bank, row); err != nil {
		return err
	}
	if col < 0 || col >= d.geom.ColsPerRow {
		return fmt.Errorf("dram: column %d out of range [0,%d)", col, d.geom.ColsPerRow)
	}
	return nil
}

// startupRow returns the deterministic power-up content of (bank, row).
func (d *Device) startupRow(bank, row int) []uint64 {
	n := d.geom.rowU64s()
	data := make([]uint64, n)
	for i := range data {
		data[i] = mix64(d.serial, uint64(bank), uint64(row), uint64(i), saltStartup)
	}
	return data
}

// StartupRow returns the device's power-up content for (bank, row): the
// values cells settle to at power-on before any write, used by the
// startup-value TRNG baselines. It does not disturb the device state.
func (d *Device) StartupRow(bank, row int) ([]uint64, error) {
	if err := d.checkRow(bank, row); err != nil {
		return nil, err
	}
	return d.startupRow(bank, row), nil
}

// rowDataLocked returns the stored content of (bank, row), materialising the
// startup content lazily on first touch.
func (d *Device) rowDataLocked(bank, row int) []uint64 {
	b := d.banks[bank]
	if data := b.rows[row].data; data != nil {
		return data
	}
	data := d.startupRow(bank, row)
	b.rows[row].data = data
	return data
}

func getBit(data []uint64, col int) uint64 {
	return (data[col>>6] >> uint(col&63)) & 1
}

func flipBit(data []uint64, col int) {
	data[col>>6] ^= 1 << uint(col&63)
}

func setBit(data []uint64, col int, v uint64) {
	if v != 0 {
		data[col>>6] |= 1 << uint(col&63)
	} else {
		data[col>>6] &^= 1 << uint(col&63)
	}
}

// Activate opens row in bank with the given activation latency (tRCD, in
// nanoseconds). Activating with a latency below the cell-dependent critical
// latency arms activation-failure injection for the first DRAM word read
// from the row. Activating an already-open bank is an error (the controller
// must precharge first), matching real DRAM behaviour.
func (d *Device) Activate(bank, row int, trcdNS float64) error {
	if err := d.checkActivate(bank, row, trcdNS); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.activateLocked(bank, row, trcdNS)
}

func (d *Device) checkActivate(bank, row int, trcdNS float64) error {
	if err := d.checkRow(bank, row); err != nil {
		return err
	}
	if trcdNS <= 0 {
		return fmt.Errorf("dram: activation latency must be positive, got %v", trcdNS)
	}
	return nil
}

func (d *Device) activateLocked(bank, row int, trcdNS float64) error {
	b := d.banks[bank]
	if b.open {
		return fmt.Errorf("dram: bank %d already has row %d open", bank, b.openRow)
	}
	b.open = true
	b.openRow = row
	b.activatedTRCD = trcdNS
	b.firstAccessPending = true
	d.stats.Activates++
	if trcdNS < d.timing.TRCD {
		d.stats.ReducedTRCDAct++
	}
	return nil
}

// Precharge closes the open row of bank. Precharging an already-closed bank
// is a no-op, as in real devices.
func (d *Device) Precharge(bank int) error {
	if err := d.checkBank(bank); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.prechargeLocked(bank)
	return nil
}

func (d *Device) prechargeLocked(bank int) {
	b := d.banks[bank]
	b.open = false
	b.openRow = -1
	b.firstAccessPending = false
	d.stats.Precharges++
}

// OpenRow returns the row currently open in bank, or -1 if the bank is
// precharged.
func (d *Device) OpenRow(bank int) (int, error) {
	if err := d.checkBank(bank); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.banks[bank]
	if !b.open {
		return -1, nil
	}
	return b.openRow, nil
}

// Refresh models an all-bank refresh. All banks must be precharged. Data
// retention is not modelled (cells never leak in this simulator), so the
// operation only updates statistics.
func (d *Device) Refresh() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, b := range d.banks {
		if b.open {
			return fmt.Errorf("dram: refresh issued while bank %d has row %d open", i, b.openRow)
		}
	}
	d.stats.Refreshes++
	return nil
}

// ReadWord reads DRAM word wordIdx from the row currently open in bank. If
// the row was activated with a reduced tRCD and this is the first word
// accessed since the activation, activation failures are injected: each
// vulnerable cell in the word may return (and restore into the array) the
// wrong value, with a probability determined by its process variation, the
// surrounding data pattern, and the device temperature, resolved by words
// drawn from the noise source's stream for bank (see injectFailuresLocked).
// The returned slice is a copy owned by the caller.
func (d *Device) ReadWord(bank, wordIdx int) ([]uint64, error) {
	out := make([]uint64, d.wordU64s)
	if err := d.ReadWordInto(bank, wordIdx, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadWordInto is ReadWord writing into dst (which must hold wordU64s
// uint64s): the allocation-free fast path sampling loops use through
// device.WordReaderInto. Failure-injection semantics are identical.
//
//drange:noalloc
func (d *Device) ReadWordInto(bank, wordIdx int, dst []uint64) error {
	if err := d.checkRead(bank, wordIdx, dst); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.readWordLocked(bank, wordIdx, dst)
}

func (d *Device) checkRead(bank, wordIdx int, dst []uint64) error {
	if err := d.checkBank(bank); err != nil {
		return err
	}
	if err := d.checkWord(wordIdx); err != nil {
		return err
	}
	if len(dst) != d.wordU64s {
		return fmt.Errorf("dram: destination length %d, want %d uint64s", len(dst), d.wordU64s)
	}
	return nil
}

// readWordLocked reads word wordIdx of bank's open row into dst, injecting
// activation failures first when this is the first access after a
// reduced-tRCD activation.
func (d *Device) readWordLocked(bank, wordIdx int, dst []uint64) error {
	b := d.banks[bank]
	if !b.open {
		return fmt.Errorf("dram: read from bank %d with no open row", bank)
	}
	row := b.openRow
	data := d.rowDataLocked(bank, row)

	if b.firstAccessPending {
		b.firstAccessPending = false
		if b.activatedTRCD < d.timing.TRCD {
			d.injectFailuresLocked(bank, row, wordIdx, b.activatedTRCD, data)
		}
	}

	d.stats.Reads++
	nw := len(dst)
	copy(dst, data[wordIdx*nw:(wordIdx+1)*nw])
	return nil
}

// WriteWord writes DRAM word wordIdx of the row currently open in bank.
func (d *Device) WriteWord(bank, wordIdx int, word []uint64) error {
	if err := d.checkWrite(bank, wordIdx, word); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writeWordLocked(bank, wordIdx, word)
}

func (d *Device) checkWrite(bank, wordIdx int, word []uint64) error {
	if err := d.checkBank(bank); err != nil {
		return err
	}
	if err := d.checkWord(wordIdx); err != nil {
		return err
	}
	if len(word) != d.wordU64s {
		return fmt.Errorf("dram: word length %d, want %d uint64s", len(word), d.wordU64s)
	}
	return nil
}

func (d *Device) writeWordLocked(bank, wordIdx int, word []uint64) error {
	b := d.banks[bank]
	if !b.open {
		return fmt.Errorf("dram: write to bank %d with no open row", bank)
	}
	// A write is a column access: it clears the first-access window just as
	// a read does (subsequent reads come from fully-restored cells).
	b.firstAccessPending = false
	data := d.rowDataLocked(bank, b.openRow)
	nw := len(word)
	copy(data[wordIdx*nw:(wordIdx+1)*nw], word)
	d.stats.Writes++
	return nil
}

// checkSample runs the checks of a SampleWord call's commands in issue
// order, the ACT's, then the READ's, then the WRITE's, and returns the first
// error. The optional PREs and refresh ACT check a subset of the ACT's
// arguments, and restore is checked even when SampleRestoreIfDirty leaves it
// unwritten, since the read is compared with it.
func (d *Device) checkSample(bank, row, wordIdx int, trcdNS float64, dst, restore []uint64) error {
	if err := d.checkActivate(bank, row, trcdNS); err != nil {
		return err
	}
	if err := d.checkRead(bank, wordIdx, dst); err != nil {
		return err
	}
	return d.checkWrite(bank, wordIdx, restore)
}

// SampleMode selects the optional commands of a SampleWord call around its
// reduced-latency ACT and READ. The zero mode is Algorithm 2's sample of a
// precharged bank: ACT, READ, WRITE.
type SampleMode uint8

const (
	// SamplePrecharge closes the bank's open row first.
	SamplePrecharge SampleMode = 1 << iota
	// SampleRefresh refreshes the row before the reduced ACT: an ACT at the
	// device's default tRCD, then a PRE (Algorithm 1, lines 6–7).
	SampleRefresh
	// SampleRestoreIfDirty writes restore only when the read differs from
	// it; without it the WRITE is unconditional.
	SampleRestoreIfDirty
	// SampleClose precharges the bank after the sample.
	SampleClose
)

// SampleWord applies one sample of DRAM word (bank, row, wordIdx) under a
// single lock acquisition: the PRE closing the bank's open row
// (SamplePrecharge), the row's full-latency refresh (SampleRefresh), the ACT
// at trcdNS, the first-access READ into dst with failure injection, the WRITE
// of restore (skipped on a clean read under SampleRestoreIfDirty) and the PRE
// closing the row (SampleClose). It is the command sequence Precharge,
// Activate and Precharge, Activate, ReadWordInto, WriteWord, Precharge, with
// the same effects and errors, except that every argument is validated
// before any state changes: a sequence the calls would reject part-way is
// rejected here whole. An ACT to a bank with a row still open is the same
// "already has row open" error.
//
//drange:noalloc
func (d *Device) SampleWord(bank, row, wordIdx int, mode SampleMode, trcdNS float64, dst, restore []uint64) error {
	// One branch covers every check of checkSample, which runs only to name
	// the failing one: its nested calls are a measurable share of a
	// sample's device time.
	if uint(bank) >= uint(d.geom.Banks) || uint(row) >= uint(d.geom.RowsPerBank) || trcdNS <= 0 ||
		uint(wordIdx) >= uint(d.wordsPerRow) || len(dst) != d.wordU64s || len(restore) != d.wordU64s {
		return d.checkSample(bank, row, wordIdx, trcdNS, dst, restore)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if mode&SamplePrecharge != 0 {
		d.prechargeLocked(bank)
	}
	if mode&SampleRefresh != 0 {
		if err := d.activateLocked(bank, row, d.timing.TRCD); err != nil {
			return err
		}
		d.prechargeLocked(bank)
	}
	if err := d.activateLocked(bank, row, trcdNS); err != nil {
		return err
	}
	if err := d.readWordLocked(bank, wordIdx, dst); err != nil {
		return err
	}
	if mode&SampleRestoreIfDirty == 0 || !slices.Equal(dst, restore) {
		if err := d.writeWordLocked(bank, wordIdx, restore); err != nil {
			return err
		}
	}
	if mode&SampleClose != 0 {
		d.prechargeLocked(bank)
	}
	return nil
}

// WriteRow writes the full content of (bank, row) directly, bypassing the
// command interface. It is a profiling convenience equivalent to opening the
// row and writing every word with nominal timing.
func (d *Device) WriteRow(bank, row int, data []uint64) error {
	if err := d.checkRow(bank, row); err != nil {
		return err
	}
	if len(data) != d.geom.rowU64s() {
		return fmt.Errorf("dram: row data length %d, want %d uint64s", len(data), d.geom.rowU64s())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	stored := make([]uint64, len(data))
	copy(stored, data)
	d.banks[bank].rows[row].data = stored
	d.stats.Writes += int64(d.wordsPerRow)
	return nil
}

// ReadRowRaw returns the stored content of (bank, row) without opening the
// row and without failure injection. It is a verification convenience; real
// controllers cannot do this.
func (d *Device) ReadRowRaw(bank, row int) ([]uint64, error) {
	if err := d.checkRow(bank, row); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	data := d.rowDataLocked(bank, row)
	out := make([]uint64, len(data))
	copy(out, data)
	return out, nil
}

// injectFailuresLocked applies activation-failure injection to DRAM word
// wordIdx of row (whose stored data is data), for an activation performed
// with latency trcdNS. Failed cells are flipped both in the returned data and
// in the stored array (the sense amplifier restores the wrong value).
//
// The bitline differential of a vulnerable cell at read time is its latency
// margin plus analog noise σ·g, with g the Box–Muller sample of two words
// (u₁, u₂) from the bank's noise stream. Below the metastable window the
// sense amplifier latches the wrong value; inside the window it is metastable
// and resolves from symmetric noise — a fair coin, the sign of a second
// sample. The kernel draws exactly those words in that order, under one lock
// of the stream per DRAM word, and decides mostly from the words themselves:
// a u₁ at or above the cell's firstDraw threshold leaves the differential in
// the region the margin alone puts it in, and the coin is the quadrant of the
// second sample's u₂ (coinQuadrant). Box–Muller runs only where rounding
// could decide, so every outcome is the one the float expression gives.
//
//drange:noalloc
func (d *Device) injectFailuresLocked(bank, row, wordIdx int, trcdNS float64, data []uint64) {
	info := d.injectInfoLocked(bank, row, wordIdx)
	if len(info.cols) == 0 {
		return
	}
	temp := d.temperatureC
	if info.tempC != temp || info.trcdNS != trcdNS {
		clear(info.firstDraws)
		info.tempC, info.trcdNS = temp, trcdNS
	}
	// Materialise the neighbouring rows once per injection instead of once
	// per neighbour probe; the slices alias the stored rows, so intra-word
	// flips stay visible to later cells, whose neighbour counts are taken
	// live.
	var above, below []uint64
	if row > 0 {
		above = d.rowDataLocked(bank, row-1)
	}
	if row < d.geom.RowsPerBank-1 {
		below = d.rowDataLocked(bank, row+1)
	}
	noise := d.noise.lockWords(bank)
	defer noise.unlock()
	for i, col := range info.cols {
		stored := getBit(data, col)
		if stored != uint64(info.vulnerable[i]) {
			continue
		}
		c := &info.chars[i]
		diff := differingNeighbors(data, above, below, col, d.geom.ColsPerRow, stored)
		fd := &info.firstDraws[i*neighbourCounts+diff]
		if *fd == 0 {
			*fd = newFirstDraw(trcdNS-c.EffectiveTCritNS(temp, diff), c.MetastableWindowNS, c.NoiseSigmaNS)
		}
		u1, u2 := noise.pair()
		reg, ok := fd.decide(u1)
		if !ok {
			margin := trcdNS - c.EffectiveTCritNS(temp, diff)
			reg = regionOf(margin+c.NoiseSigmaNS*boxMuller(unitFloat(u1), unitFloat(u2)), c.MetastableWindowNS)
		}
		fail := reg == fails
		if reg == metastable {
			v1, v2 := noise.pair()
			if fail, ok = coinQuadrant(v2); !ok {
				fail = boxMuller(unitFloat(v1), unitFloat(v2)) < 0
			}
		}
		if fail {
			flipBit(data, col)
			d.stats.InjectedFlips++
		}
	}
}

// region is where a bitline differential falls against the metastable
// window ±w.
type region uint8

const (
	passes     region = iota // above +w: the cell reads correctly
	metastable               // within ±w: a fair coin decides
	fails                    // below −w: the cell latches the wrong value
)

// regionOf classifies the differential x against the window ±w.
func regionOf(x, w float64) region {
	switch {
	case x < -w:
		return fails
	case x <= w:
		return metastable
	}
	return passes
}

// firstDraw is one first-draw table entry: the region a cell's margin m puts
// its differential in (top bits) and a threshold T on u₁>>11 (low bits). With
// d the distance from m to its region's nearest edge and R = (d/σ)(1 − 10⁻⁶),
// T = ⌈e^(−R²/2)·2⁵³⌉ + 1, so u₁>>11 ≥ T implies a Box–Muller radius
// √(−2 ln u₁) < R and |σ·g| < d: the sample cannot leave m's region, and the
// 10⁻⁶ slack dwarfs the rounding of every float step. Margins within
// minFastDistanceNS of an edge always take the exact path. T ≥ 1, so u₁ = 0,
// which Box–Muller clamps, is exact too, and 0 marks an entry not yet filled.
type firstDraw uint64

const (
	firstDrawRegionShift = 62
	minFastDistanceNS    = 1e-6
)

// newFirstDraw returns the entry for margin m under window ±w and noise σ.
func newFirstDraw(m, w, sigma float64) firstDraw {
	reg := regionOf(m, w)
	var d float64
	switch reg {
	case fails:
		d = -w - m
	case metastable:
		d = min(m+w, w-m)
	default:
		d = m - w
	}
	t := uint64(1) << 53 // above every u₁>>11: always exact
	if d > minFastDistanceNS {
		r := d / sigma * (1 - 1e-6)
		t = uint64(math.Ceil(math.Exp(-r*r/2)*(1<<53))) + 1
	}
	return firstDraw(uint64(reg)<<firstDrawRegionShift | t)
}

// decide returns the region of the entry's margin and whether u₁ clears the
// threshold; when it does not, the float expression must decide.
func (f firstDraw) decide(u1 uint64) (region, bool) {
	return region(f >> firstDrawRegionShift), u1>>11 >= uint64(f)&(1<<firstDrawRegionShift-1)
}

const (
	quarterTurn = 1 << 51 // u₂>>11 of u₂ = ¼
	// coinBand is the half-width, in steps of u₂>>11, of the bands around ¼
	// and ¾ where coinQuadrant defers to the float expression: 2⁻³³ of a
	// turn, far wider than the rounding of 2π·u₂ and of cos.
	coinBand = 1 << 20
)

// coinQuadrant decides a metastable cell's coin — whether the Box–Muller
// sample √(−2 ln v₁)·cos(2πv₂) is negative — from v₂ alone: the radius is
// positive and finite, so the sample is negative exactly when v₂ ∈ (¼, ¾).
// ok is false within coinBand of ¼ and ¾, where rounding sets the sign.
func coinQuadrant(v2 uint64) (fail, ok bool) {
	k := v2 >> 11
	if k-(quarterTurn-coinBand) <= 2*coinBand || k-(3*quarterTurn-coinBand) <= 2*coinBand {
		return false, false
	}
	return k > quarterTurn && k < 3*quarterTurn, true
}

// differingNeighborsLocked counts the neighbouring cells (left, right, above,
// below) that store the opposite value of the victim cell.
func (d *Device) differingNeighborsLocked(bank, row, col int, stored uint64) int {
	var above, below []uint64
	if row > 0 {
		above = d.rowDataLocked(bank, row-1)
	}
	if row < d.geom.RowsPerBank-1 {
		below = d.rowDataLocked(bank, row+1)
	}
	return differingNeighbors(d.rowDataLocked(bank, row), above, below, col, d.geom.ColsPerRow, stored)
}

// differingNeighbors counts the neighbours of (row data, col) storing the
// opposite value, given the already-materialised row and its vertical
// neighbours (nil at array edges).
func differingNeighbors(data, above, below []uint64, col, colsPerRow int, stored uint64) int {
	diff := 0
	if col > 0 && getBit(data, col-1) != stored {
		diff++
	}
	if col < colsPerRow-1 && getBit(data, col+1) != stored {
		diff++
	}
	if above != nil && getBit(above, col) != stored {
		diff++
	}
	if below != nil && getBit(below, col) != stored {
		diff++
	}
	return diff
}

// FailureProbabilityAt returns the model's failure probability for the cell
// at (bank, row, col) if it were read immediately after an activation with
// the given tRCD at the current device temperature, given the currently
// stored data pattern. It returns 0 for cells that cannot fail (non-weak
// columns or a stored value of the non-vulnerable polarity).
func (d *Device) FailureProbabilityAt(bank, row, col int, trcdNS float64) (float64, error) {
	if err := d.checkCell(bank, row, col); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.cellCharacterLocked(bank, row, col)
	if !c.WeakColumn {
		return 0, nil
	}
	data := d.rowDataLocked(bank, row)
	stored := getBit(data, col)
	if !c.VulnerableWhenStoring(stored) {
		return 0, nil
	}
	diff := d.differingNeighborsLocked(bank, row, col, stored)
	return c.FailureProbability(trcdNS, d.temperatureC, diff), nil
}
