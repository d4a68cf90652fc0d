package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/memctrl"
)

// EngineConfig controls the concurrent sharded harvesting engine.
type EngineConfig struct {
	// Shards is the number of harvesting shards. Each shard drives its own
	// memctrl.Controller — one simulated channel/rank — over a disjoint
	// subset of the bank selections, which is how the paper's throughput
	// scales with the number of banks and channels sampled in parallel.
	// 0 selects min(4, len(selections)); values above len(selections) are
	// clamped (a shard needs at least one bank).
	Shards int
	// TRNG holds the per-shard generation parameters.
	TRNG TRNGConfig
	// BufferWords is the per-shard capacity of the bounded ring of packed
	// 64-bit words between each shard and the readers; 0 selects 32 (2 KiB
	// of buffered random bits per shard). A shard stalls once its ring is
	// full, so the engine does not run the simulation ahead of demand
	// without bound.
	BufferWords int
	// BatchBits is the number of bits a shard harvests per core-loop batch
	// before publishing packed words to the ring; 0 selects 256.
	BatchBits int
}

func (c EngineConfig) withDefaults(nSel int) EngineConfig {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Shards > nSel {
		c.Shards = nSel
	}
	if c.BufferWords == 0 {
		c.BufferWords = 32
	}
	if c.BatchBits == 0 {
		c.BatchBits = 256
	}
	return c
}

// ringWord is one ring entry: up to 64 harvested bits packed LSB-first.
type ringWord struct {
	bits int
	word uint64
}

// engineShard is one harvesting unit: a dedicated controller and single-shard
// TRNG over a disjoint subset of the banks, publishing packed words into its
// own bounded ring.
type engineShard struct {
	idx  int
	ctrl *memctrl.Controller
	trng *TRNG
	out  chan ringWord

	// bitsHarvested and simCycles are published by the shard goroutine after
	// every batch and read by Stats without stopping the harvest.
	bitsHarvested atomic.Int64 // drange:atomic
	simCycles     atomic.Int64 // drange:atomic
}

// Engine is the concurrent sharded harvesting engine: it partitions the bank
// selections across per-shard controllers over the shared DRAM substrate,
// runs one harvesting goroutine per shard feeding a bounded per-shard ring
// of packed 64-bit words, and exposes a thread-safe io.Reader plus
// ReadBits/Uint64 facade. Consumers drain the shard rings round-robin, which
// keeps every shard on the critical path no matter how the host schedules
// the goroutines — demand pulls each shard forward in turn — and makes the
// multi-shard output stream deterministic when the device noise source is:
// output word k always comes from shard k mod Shards. Shutdown is
// context-based: cancel the context passed to NewEngine or call Close.
type Engine struct {
	cfg   EngineConfig
	dev   device.Device
	parts [][]BankSelection

	shards []*engineShard

	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once

	errMu    sync.Mutex
	shardErr error // drange:guardedby errMu

	// mu serialises consumers and guards the partially-consumed word, the
	// round-robin cursor and the per-shard delivery counters.
	mu        sync.Mutex
	cur       ringWord // drange:guardedby mu
	curShard  int      // drange:guardedby mu
	curOff    int      // drange:guardedby mu
	rr        int      // drange:guardedby mu
	delivered []int64  // drange:guardedby mu
}

// NewEngine partitions selections round-robin across cfg.Shards shards (the
// selections are sorted by descending data rate, so round-robin balances the
// per-shard bit yield), prepares one controller and single-shard TRNG per
// shard, and starts the harvesting goroutines. The engine stops when ctx is
// cancelled or Close is called.
func NewEngine(ctx context.Context, dev device.Device, selections []BankSelection, cfg EngineConfig) (*Engine, error) {
	if dev == nil {
		return nil, fmt.Errorf("core: nil device")
	}
	if len(selections) == 0 {
		return nil, fmt.Errorf("core: no bank selections")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("core: negative shard count")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults(len(selections))

	parts := make([][]BankSelection, cfg.Shards)
	for i, s := range selections {
		parts[i%cfg.Shards] = append(parts[i%cfg.Shards], s)
	}

	ectx, cancel := context.WithCancel(ctx)
	e := &Engine{
		cfg:       cfg,
		dev:       dev,
		parts:     parts,
		ctx:       ectx,
		cancel:    cancel,
		delivered: make([]int64, cfg.Shards),
	}

	// Construct every controller before any TRNG: taking over a device
	// precharges all banks, so a controller built after another shard's TRNG
	// started issuing commands would desynchronise that shard's bank state.
	ctrls := make([]*memctrl.Controller, cfg.Shards)
	for i := range ctrls {
		ctrls[i] = memctrl.NewController(dev)
	}
	for i, part := range parts {
		trng, err := NewTRNG(ctrls[i], part, cfg.TRNG)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("core: engine shard %d: %w", i, err)
		}
		e.shards = append(e.shards, &engineShard{
			idx:  i,
			ctrl: ctrls[i],
			trng: trng,
			out:  make(chan ringWord, cfg.BufferWords),
		})
	}

	for _, s := range e.shards {
		e.wg.Add(1)
		go e.runShard(s)
	}
	return e, nil
}

// runShard is the per-shard harvesting loop: run the Algorithm 2 core loop
// for a batch of bits, publish accounting, then drain full packed words into
// the shard's ring, blocking when the ring is full. Bits short of a full
// word stay buffered in the TRNG for the next batch, so no bit is dropped or
// reordered.
func (e *Engine) runShard(s *engineShard) {
	defer e.wg.Done()
	for {
		select {
		case <-e.ctx.Done():
			return
		default:
		}
		if err := s.trng.harvest(e.cfg.BatchBits); err != nil {
			e.errMu.Lock()
			if e.shardErr == nil {
				e.shardErr = fmt.Errorf("core: engine shard %d: %w", s.idx, err)
			}
			e.errMu.Unlock()
			e.cancel()
			return
		}
		s.bitsHarvested.Store(s.trng.BitsGenerated())
		s.simCycles.Store(s.ctrl.Now())
		for s.trng.bits.Len() >= 64 {
			word, n := s.trng.bits.PopWord()
			select {
			case s.out <- ringWord{bits: n, word: word}:
			case <-e.ctx.Done():
				return
			}
		}
	}
}

// failure returns the sticky error readers observe once the engine stops.
func (e *Engine) failure() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	if e.shardErr != nil {
		return e.shardErr
	}
	if err := e.ctx.Err(); err != nil {
		return fmt.Errorf("core: engine stopped: %w", err)
	}
	return fmt.Errorf("core: engine stopped")
}

// nextWordLocked blocks until the round-robin shard's next packed word is
// available, advancing the cursor on success. Words already buffered in the
// shard rings are delivered even after shutdown began, so readers drain what
// was harvested before the stop.
func (e *Engine) nextWordLocked() (ringWord, int, error) {
	s := e.shards[e.rr]
	select {
	case w := <-s.out:
		e.rr = (e.rr + 1) % len(e.shards)
		return w, s.idx, nil
	default:
	}
	select {
	case w := <-s.out:
		e.rr = (e.rr + 1) % len(e.shards)
		return w, s.idx, nil
	case <-e.ctx.Done():
		// The engine stopped: deliver whatever remains across the shard
		// rings, scanning from the cursor so pre-shutdown words keep their
		// order, before surfacing the sticky error.
		for i := 0; i < len(e.shards); i++ {
			d := e.shards[(e.rr+i)%len(e.shards)]
			select {
			case w := <-d.out:
				e.rr = (e.rr + i + 1) % len(e.shards)
				return w, d.idx, nil
			default:
			}
		}
		return ringWord{}, 0, e.failure()
	}
}

// readBits is the consumer core: pop n bits from the current word and the
// ring, appending each bit's producing shard to tags when non-nil.
func (e *Engine) readBits(n int, tags *[]int) ([]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: bit count must be positive, got %d", n)
	}
	prealloc := n
	if prealloc > maxSamplePrealloc {
		prealloc = maxSamplePrealloc
	}
	out := make([]byte, 0, prealloc)
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(out) < n {
		if e.curOff == e.cur.bits {
			w, shard, err := e.nextWordLocked()
			if err != nil {
				return nil, err
			}
			e.cur, e.curShard, e.curOff = w, shard, 0
		}
		out = append(out, byte((e.cur.word>>uint(e.curOff))&1))
		e.curOff++
		e.delivered[e.curShard]++
		if tags != nil {
			*tags = append(*tags, e.curShard)
		}
	}
	return out, nil
}

// ReadBits returns n random bits, one bit per returned byte (values 0 or 1).
// It is safe for concurrent use.
func (e *Engine) ReadBits(n int) ([]byte, error) {
	return e.readBits(n, nil)
}

// ReadPacked fills p with random bytes straight from the shard rings: each
// ring word becomes eight output bytes with no intermediate bit-per-byte
// slice and no allocation. The byte encoding and the round-robin word order
// are identical to Read's. It is safe for concurrent use.
//
//drange:noalloc
func (e *Engine) ReadPacked(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := 0; i < len(p); {
		if e.curOff == e.cur.bits {
			w, shard, err := e.nextWordLocked()
			if err != nil {
				return err
			}
			e.cur, e.curShard, e.curOff = w, shard, 0
		}
		if e.curOff == 0 && e.cur.bits == 64 && i+8 <= len(p) {
			// Whole ring word to eight bytes: the word is LSB-first in
			// stream order, so reversing it and storing big-endian yields
			// the MSB-first byte encoding.
			binary.BigEndian.PutUint64(p[i:], bits.Reverse64(e.cur.word))
			e.curOff = 64
			e.delivered[e.curShard] += 64
			i += 8
			continue
		}
		// Assemble one byte across word boundaries (a partially consumed
		// word — e.g. after an odd-length ReadBits — or a short final word).
		var acc byte
		for accN := 0; accN < 8; {
			if e.curOff == e.cur.bits {
				w, shard, err := e.nextWordLocked()
				if err != nil {
					return err
				}
				e.cur, e.curShard, e.curOff = w, shard, 0
			}
			take := 8 - accN
			if avail := e.cur.bits - e.curOff; take > avail {
				take = avail
			}
			chunk := (e.cur.word >> uint(e.curOff)) & (1<<uint(take) - 1)
			acc |= byte(chunk << uint(accN))
			e.curOff += take
			e.delivered[e.curShard] += int64(take)
			accN += take
		}
		p[i] = bits.Reverse8(acc)
		i++
	}
	return nil
}

// Read fills p with random bytes, implementing io.Reader. It never returns a
// short read except on error. It is safe for concurrent use.
func (e *Engine) Read(p []byte) (int, error) {
	if err := e.ReadPacked(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Uint64 returns a 64-bit random value. It is safe for concurrent use.
func (e *Engine) Uint64() (uint64, error) {
	var buf [8]byte
	if _, err := e.Read(buf[:]); err != nil {
		return 0, err
	}
	return BEUint64(buf), nil
}

// Shards returns the number of harvesting shards.
func (e *Engine) Shards() int { return len(e.shards) }

// Close stops the harvesting goroutines and waits for them to exit. It is
// idempotent and safe to call concurrently with readers; blocked readers
// return an error once the ring drains.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.cancel()
		e.wg.Wait()
	})
	return nil
}

// ShardStats is the per-shard throughput/latency accounting of one
// harvesting shard, measured in simulated DRAM time.
type ShardStats struct {
	Shard int
	// Banks is the number of banks the shard samples.
	Banks int
	// BitsPerIteration is the shard's data rate per core-loop pass.
	BitsPerIteration int
	// BitsHarvested counts bits the shard extracted from its banks
	// (buffered bits included).
	BitsHarvested int64
	// BitsDelivered counts bits consumers actually read from this shard.
	BitsDelivered int64
	// SimCycles and SimNS are the shard controller's simulated time spent.
	SimCycles int64
	SimNS     float64
	// ThroughputMbps is the shard's harvest rate in simulated time.
	ThroughputMbps float64
	// Latency64NS is the shard's simulated time to produce 64 bits.
	Latency64NS float64
}

// EngineStats aggregates the engine's accounting. Shards run concurrently in
// simulated time — each models an independent channel/rank controller — so
// the aggregate throughput is the sum of the shard rates and the aggregate
// 64-bit latency is 64 bits at the summed rate, mirroring the paper's
// multi-channel scaling (Section 7.3, Table 2).
type EngineStats struct {
	Shards                  []ShardStats
	BitsHarvested           int64
	BitsDelivered           int64
	AggregateThroughputMbps float64
	Latency64NS             float64
}

// Stats returns a snapshot of the per-shard and aggregate accounting. It is
// safe to call while the engine is harvesting.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	delivered := append([]int64(nil), e.delivered...)
	e.mu.Unlock()

	st := EngineStats{Shards: make([]ShardStats, len(e.shards))}
	bitsPerNS := 0.0
	for i, s := range e.shards {
		bits := s.bitsHarvested.Load()
		cycles := s.simCycles.Load()
		ns := s.ctrl.Params().NS(cycles)
		ss := ShardStats{
			Shard:            i,
			Banks:            s.trng.Banks(),
			BitsPerIteration: s.trng.BitsPerIteration(),
			BitsHarvested:    bits,
			BitsDelivered:    delivered[i],
			SimCycles:        cycles,
			SimNS:            ns,
		}
		if ns > 0 && bits > 0 {
			ss.ThroughputMbps = float64(bits) / ns * 1000.0
			ss.Latency64NS = ns / float64(bits) * 64.0
			bitsPerNS += float64(bits) / ns
		}
		st.Shards[i] = ss
		st.BitsHarvested += bits
		st.BitsDelivered += delivered[i]
	}
	if bitsPerNS > 0 {
		st.AggregateThroughputMbps = bitsPerNS * 1000.0
		st.Latency64NS = 64.0 / bitsPerNS
	}
	return st
}

var _ io.Reader = (*Engine)(nil)
var _ io.Closer = (*Engine)(nil)
