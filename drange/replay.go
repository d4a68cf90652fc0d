package drange

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/timing"
)

// The "replay" backend records every device operation of a run to a log file
// and can later replay that log, serving the recorded results in order. A
// replayed run is byte-reproducible by construction — even when the original
// run used physical (OS-entropy) noise — which makes it the CI determinism
// anchor and a portable bug-report format for generator behaviour.
//
// Options:
//
//   - "mode": "record" or "replay" (required).
//   - "path": the operation log file (required).
//   - "inner": record mode only — the backend recorded through (default
//     "sim"); inner backend options can be supplied as "inner.<key>".
//
// Recording captures the device command stream, so a replayed run must issue
// the same operations in the same order: open the same profile the same way
// and read the same amounts. Concurrent shards interleave their commands
// nondeterministically, so record 1-shard sources (the default) when
// byte-identical replay is the goal. The engine harvests ahead of the reader,
// so a log holds somewhat more operations than the bytes read needed, and its
// length varies from run to run; a replay that reads past the log, or
// diverges from it, fails loudly instead of returning wrong bits.
func openReplayBackend(p BackendParams) (Device, error) {
	mode := p.option("mode", "")
	path := p.option("path", "")
	if path == "" {
		return nil, fmt.Errorf(`replay backend needs a "path" option`)
	}
	for k := range p.Options {
		switch k {
		case "mode", "path", "inner":
		default:
			if len(k) > 6 && k[:6] == "inner." {
				continue
			}
			return nil, fmt.Errorf("replay backend: unknown option %q", k)
		}
	}
	switch mode {
	case "record":
		innerOpts := map[string]string{}
		for k, v := range p.Options {
			if len(k) > 6 && k[:6] == "inner." {
				innerOpts[k[6:]] = v
			}
		}
		inner, err := OpenBackend(p.option("inner", "sim"), BackendParams{
			Manufacturer:  p.Manufacturer,
			Serial:        p.Serial,
			Deterministic: p.Deterministic,
			Geometry:      p.Geometry,
			Options:       innerOpts,
		})
		if err != nil {
			return nil, err
		}
		rec, err := newRecordDevice(inner, path, p.Manufacturer)
		if err != nil {
			closeDevice(inner)
			return nil, err
		}
		return rec, nil
	case "replay":
		return openReplayDevice(path, p)
	default:
		return nil, fmt.Errorf(`replay backend needs mode=record or mode=replay, got %q`, mode)
	}
}

// replayFormat versions the operation-log schema.
const replayFormat = 1

// replayHeader is the first line of an operation log: the identity a replayed
// device reports and the timing context needed to rebuild statistics.
type replayHeader struct {
	Format       int      `json:"format"`
	Serial       uint64   `json:"serial"`
	Manufacturer string   `json:"manufacturer,omitempty"`
	Geometry     Geometry `json:"geometry"`
	TemperatureC float64  `json:"temperature_c"`
	// TRCDNS is the device's nominal activation latency; replayed activates
	// below it count as reduced-tRCD activations in OpStats.
	TRCDNS float64 `json:"trcd_ns"`
}

// replayOp is one logged device operation. Results (Data) and failures (Err)
// are recorded so a replay reproduces both.
type replayOp struct {
	Op   string   `json:"op"`
	Bank int      `json:"bank,omitempty"`
	Row  int      `json:"row,omitempty"`
	Word int      `json:"word,omitempty"`
	TRCD float64  `json:"trcd,omitempty"`
	Temp float64  `json:"temp,omitempty"`
	Data []uint64 `json:"data,omitempty"`
	Err  string   `json:"err,omitempty"`
}

const (
	opActivate   = "act"
	opPrecharge  = "pre"
	opRefresh    = "ref"
	opReadWord   = "rd"
	opWriteWord  = "wr"
	opWriteRow   = "wrow"
	opReadRowRaw = "rraw"
	opStartupRow = "srow"
	opSetTemp    = "temp"
)

// activeRecordPaths guards against two live recorders sharing one log file:
// their buffered writes would interleave mid-line and corrupt the log while
// both runs report success. Opening a pool with a record-mode default
// backend is the easy way to trip this; each member needs its own path.
var (
	recordPathMu sync.Mutex
	recordPaths  = map[string]bool{}
)

func claimRecordPath(path string) (string, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		abs = path
	}
	recordPathMu.Lock()
	defer recordPathMu.Unlock()
	if recordPaths[abs] {
		return "", fmt.Errorf("replay log %s is already being recorded by another device; give each recorder its own path (pools: use WithDeviceBackend with per-member paths)", path)
	}
	recordPaths[abs] = true
	return abs, nil
}

func releaseRecordPath(abs string) {
	recordPathMu.Lock()
	defer recordPathMu.Unlock()
	delete(recordPaths, abs)
}

// recordDevice wraps an inner Device, appending every operation (arguments,
// results and errors) to the log. Close flushes and closes the log file.
type recordDevice struct {
	mu      sync.Mutex
	inner   Device
	f       *os.File      // drange:guardedby mu
	w       *bufio.Writer // drange:guardedby mu
	enc     *json.Encoder // drange:guardedby mu
	absPath string        // drange:guardedby mu
	// err is the sticky log-write failure.
	// drange:guardedby mu
	err error
}

//drange:holds mu construction: the recorder is not shared until newRecordDevice returns
func newRecordDevice(inner Device, path, manufacturer string) (*recordDevice, error) {
	abs, err := claimRecordPath(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		releaseRecordPath(abs)
		return nil, fmt.Errorf("opening replay log: %w", err)
	}
	w := bufio.NewWriter(f)
	r := &recordDevice{inner: inner, f: f, w: w, enc: json.NewEncoder(w), absPath: abs}
	hdr := replayHeader{
		Format:       replayFormat,
		Serial:       inner.Serial(),
		Manufacturer: manufacturer,
		Geometry:     inner.Geometry(),
		TemperatureC: inner.Temperature(),
		TRCDNS:       timing.NewLPDDR4().TRCD,
	}
	if err := r.enc.Encode(hdr); err != nil {
		f.Close()
		releaseRecordPath(abs)
		return nil, fmt.Errorf("writing replay log header: %w", err)
	}
	return r, nil
}

// logLocked appends one operation entry, capturing err (if any) in the entry.
func (r *recordDevice) logLocked(op replayOp, err error) {
	if err != nil {
		op.Err = err.Error()
	}
	if r.err == nil {
		if werr := r.enc.Encode(op); werr != nil {
			r.err = fmt.Errorf("drange: replay log write failed: %w", werr)
		}
	}
}

func (r *recordDevice) Serial() uint64     { return r.inner.Serial() }
func (r *recordDevice) Geometry() Geometry { return r.inner.Geometry() }
func (r *recordDevice) Temperature() float64 {
	return r.inner.Temperature()
}
func (r *recordDevice) OpStats() DeviceStats { return r.inner.OpStats() }

func (r *recordDevice) Activate(bank, row int, trcdNS float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.inner.Activate(bank, row, trcdNS)
	r.logLocked(replayOp{Op: opActivate, Bank: bank, Row: row, TRCD: trcdNS}, err)
	return r.failLocked(err)
}

func (r *recordDevice) Precharge(bank int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.inner.Precharge(bank)
	r.logLocked(replayOp{Op: opPrecharge, Bank: bank}, err)
	return r.failLocked(err)
}

func (r *recordDevice) Refresh() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.inner.Refresh()
	r.logLocked(replayOp{Op: opRefresh}, err)
	return r.failLocked(err)
}

func (r *recordDevice) ReadWord(bank, wordIdx int) ([]uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := r.inner.ReadWord(bank, wordIdx)
	r.logLocked(replayOp{Op: opReadWord, Bank: bank, Word: wordIdx, Data: data}, err)
	return data, r.failLocked(err)
}

func (r *recordDevice) WriteWord(bank, wordIdx int, word []uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.inner.WriteWord(bank, wordIdx, word)
	r.logLocked(replayOp{Op: opWriteWord, Bank: bank, Word: wordIdx, Data: word}, err)
	return r.failLocked(err)
}

func (r *recordDevice) WriteRow(bank, row int, data []uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.inner.WriteRow(bank, row, data)
	r.logLocked(replayOp{Op: opWriteRow, Bank: bank, Row: row, Data: data}, err)
	return r.failLocked(err)
}

func (r *recordDevice) ReadRowRaw(bank, row int) ([]uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := r.inner.ReadRowRaw(bank, row)
	r.logLocked(replayOp{Op: opReadRowRaw, Bank: bank, Row: row, Data: data}, err)
	return data, r.failLocked(err)
}

func (r *recordDevice) StartupRow(bank, row int) ([]uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := r.inner.StartupRow(bank, row)
	r.logLocked(replayOp{Op: opStartupRow, Bank: bank, Row: row, Data: data}, err)
	return data, r.failLocked(err)
}

func (r *recordDevice) SetTemperature(c float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.inner.SetTemperature(c)
	r.logLocked(replayOp{Op: opSetTemp, Temp: c}, err)
	return r.failLocked(err)
}

// failLocked surfaces a sticky log-write error in preference to the op result,
// so a run whose recording is incomplete cannot silently pass as recorded.
func (r *recordDevice) failLocked(opErr error) error {
	if r.err != nil {
		return r.err
	}
	return opErr
}

// Close flushes and closes the operation log, then closes the inner device.
func (r *recordDevice) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.absPath != "" {
		releaseRecordPath(r.absPath)
		r.absPath = ""
	}
	err := r.err
	if ferr := r.w.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("drange: flushing replay log: %w", ferr)
	}
	if cerr := r.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("drange: closing replay log: %w", cerr)
	}
	if cerr := closeDevice(r.inner); err == nil && cerr != nil {
		err = cerr
	}
	return err
}

// replayDevice serves a recorded operation log. Every call must match the
// next logged operation (kind and arguments); the logged result or error is
// returned. A divergent call — different op, different arguments, or reading
// past the end of the log — fails loudly rather than inventing data.
type replayDevice struct {
	mu     sync.Mutex
	hdr    replayHeader
	ops    []replayOp  // drange:guardedby mu
	cursor int         // drange:guardedby mu
	tempC  float64     // drange:guardedby mu
	stats  DeviceStats // drange:guardedby mu
}

//drange:holds mu construction: the device is not shared until openReplayDevice returns
func openReplayDevice(path string, p BackendParams) (*replayDevice, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening replay log: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	if !sc.Scan() {
		return nil, fmt.Errorf("replay log %s is empty", path)
	}
	var hdr replayHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("replay log %s: bad header: %w", path, err)
	}
	if hdr.Format != replayFormat {
		return nil, fmt.Errorf("replay log %s: format %d, this build reads %d", path, hdr.Format, replayFormat)
	}
	// The requested identity must match the recorded run, for the same reason
	// Open rejects profile/device mismatches.
	if p.Serial != hdr.Serial {
		return nil, fmt.Errorf("replay log %s records serial %d, not %d", path, hdr.Serial, p.Serial)
	}
	if !p.Geometry.IsZero() && p.Geometry != hdr.Geometry {
		return nil, fmt.Errorf("replay log %s records geometry %+v, not %+v", path, hdr.Geometry, p.Geometry)
	}
	if p.Manufacturer != "" && hdr.Manufacturer != "" && p.Manufacturer != hdr.Manufacturer {
		return nil, fmt.Errorf("replay log %s records manufacturer %q, not %q", path, hdr.Manufacturer, p.Manufacturer)
	}
	d := &replayDevice{hdr: hdr, tempC: hdr.TemperatureC}
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var op replayOp
		if err := json.Unmarshal(sc.Bytes(), &op); err != nil {
			return nil, fmt.Errorf("replay log %s: op %d: %w", path, len(d.ops), err)
		}
		d.ops = append(d.ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading replay log %s: %w", path, err)
	}
	return d, nil
}

func (d *replayDevice) Serial() uint64     { return d.hdr.Serial }
func (d *replayDevice) Geometry() Geometry { return d.hdr.Geometry }
func (d *replayDevice) Temperature() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tempC
}
func (d *replayDevice) OpStats() DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// nextLocked matches the next logged operation against (op, want) — kind,
// address arguments, and for writes the data written — and returns it.
func (d *replayDevice) nextLocked(op string, want replayOp) (replayOp, error) {
	if d.cursor >= len(d.ops) {
		return replayOp{}, fmt.Errorf("drange: replay log exhausted after %d operations; the replayed run issued more device commands than were recorded (read fewer bytes, or re-record)", len(d.ops))
	}
	got := d.ops[d.cursor]
	if got.Op != op || got.Bank != want.Bank || got.Row != want.Row || got.Word != want.Word || got.TRCD != want.TRCD || got.Temp != want.Temp || !writeDataMatches(got, want) {
		return replayOp{}, fmt.Errorf("drange: replay diverged at operation %d: run issued %s%+v, log records %s (bank=%d row=%d word=%d); replay requires the same open sequence and read sizes as the recording",
			d.cursor, op, want, got.Op, got.Bank, got.Row, got.Word)
	}
	d.cursor++
	if got.Err != "" {
		return got, fmt.Errorf("%s", got.Err)
	}
	return got, nil
}

// writeDataMatches compares the data argument of write operations (reads
// carry results, not arguments, in Data).
func writeDataMatches(got, want replayOp) bool {
	if want.Op != opWriteWord && want.Op != opWriteRow {
		return true
	}
	if len(got.Data) != len(want.Data) {
		return false
	}
	for i, w := range want.Data {
		if got.Data[i] != w {
			return false
		}
	}
	return true
}

func (d *replayDevice) Activate(bank, row int, trcdNS float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.nextLocked(opActivate, replayOp{Bank: bank, Row: row, TRCD: trcdNS})
	if err == nil {
		d.stats.Activates++
		if trcdNS < d.hdr.TRCDNS {
			d.stats.ReducedTRCDAct++
		}
	}
	return err
}

func (d *replayDevice) Precharge(bank int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.nextLocked(opPrecharge, replayOp{Bank: bank})
	if err == nil {
		d.stats.Precharges++
	}
	return err
}

func (d *replayDevice) Refresh() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.nextLocked(opRefresh, replayOp{})
	if err == nil {
		d.stats.Refreshes++
	}
	return err
}

func (d *replayDevice) ReadWord(bank, wordIdx int) ([]uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	op, err := d.nextLocked(opReadWord, replayOp{Bank: bank, Word: wordIdx})
	if err != nil {
		return nil, err
	}
	d.stats.Reads++
	return append([]uint64(nil), op.Data...), nil
}

func (d *replayDevice) WriteWord(bank, wordIdx int, word []uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.nextLocked(opWriteWord, replayOp{Op: opWriteWord, Bank: bank, Word: wordIdx, Data: word})
	if err == nil {
		d.stats.Writes++
	}
	return err
}

func (d *replayDevice) WriteRow(bank, row int, data []uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.nextLocked(opWriteRow, replayOp{Op: opWriteRow, Bank: bank, Row: row, Data: data})
	if err == nil {
		d.stats.Writes += int64(d.hdr.Geometry.wordsPerRow())
	}
	return err
}

func (d *replayDevice) ReadRowRaw(bank, row int) ([]uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	op, err := d.nextLocked(opReadRowRaw, replayOp{Bank: bank, Row: row})
	if err != nil {
		return nil, err
	}
	return append([]uint64(nil), op.Data...), nil
}

func (d *replayDevice) StartupRow(bank, row int) ([]uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	op, err := d.nextLocked(opStartupRow, replayOp{Bank: bank, Row: row})
	if err != nil {
		return nil, err
	}
	return append([]uint64(nil), op.Data...), nil
}

func (d *replayDevice) SetTemperature(c float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.nextLocked(opSetTemp, replayOp{Temp: c})
	if err == nil {
		d.tempC = c
	}
	return err
}

// Remaining returns the number of unconsumed logged operations; a fully
// replayed run ends at zero.
func (d *replayDevice) Remaining() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.ops) - d.cursor
}

// parseFloatOption parses a float-valued backend option.
func parseFloatOption(p BackendParams, key string, def float64) (float64, error) {
	v, ok := p.Options[key]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("option %q: %w", key, err)
	}
	return f, nil
}
