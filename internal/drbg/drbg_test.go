package drbg

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// newBoth instantiates both constructions from deterministic seeds so the
// shared behavioural tests run against each.
func newBoth(t *testing.T, opts Options) map[string]DRBG {
	t.Helper()
	both := make(map[string]DRBG)
	seed := make([]byte, ctrSeedLen)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	c, err := NewCTR(seed, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	both[c.Algorithm()] = c
	h, err := NewChaCha(seed[:chachaSeedLen], nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	both[h.Algorithm()] = h
	return both
}

func TestSeedLengthValidation(t *testing.T) {
	if _, err := NewCTR(make([]byte, 47), nil, Options{}); err == nil {
		t.Error("NewCTR accepted a 47-byte seed")
	}
	if _, err := NewChaCha(make([]byte, 31), nil, Options{}); err == nil {
		t.Error("NewChaCha accepted a 31-byte seed")
	}
	if _, err := NewCTR(make([]byte, ctrSeedLen), make([]byte, ctrSeedLen+1), Options{}); err == nil {
		t.Error("NewCTR accepted an oversized personalization string")
	}
	if _, err := NewChaCha(make([]byte, chachaSeedLen), make([]byte, chachaSeedLen+1), Options{}); err == nil {
		t.Error("NewChaCha accepted an oversized personalization string")
	}
	for name, d := range newBoth(t, Options{}) {
		if err := d.Reseed(make([]byte, d.SeedLen()-1), nil); err == nil {
			t.Errorf("%s: Reseed accepted a short seed", name)
		}
	}
}

func TestRequestLimit(t *testing.T) {
	for name, d := range newBoth(t, Options{MaxRequestBytes: 128}) {
		if err := d.Generate(make([]byte, 129), nil); !errors.Is(err, ErrRequestTooLarge) {
			t.Errorf("%s: want ErrRequestTooLarge, got %v", name, err)
		}
		if err := d.Generate(make([]byte, 128), nil); err != nil {
			t.Errorf("%s: in-limit request failed: %v", name, err)
		}
	}
	// The SP 800-90A hard ceiling applies even when the option asks for more.
	for name, d := range newBoth(t, Options{MaxRequestBytes: MaxRequestBytes * 2}) {
		if err := d.Generate(make([]byte, MaxRequestBytes+1), nil); !errors.Is(err, ErrRequestTooLarge) {
			t.Errorf("%s: hard per-request ceiling not enforced: %v", name, err)
		}
	}
}

func TestReseedInterval(t *testing.T) {
	for name, d := range newBoth(t, Options{ReseedInterval: 3}) {
		out := make([]byte, 16)
		for i := 0; i < 3; i++ {
			if d.NeedsReseed() {
				t.Fatalf("%s: NeedsReseed before interval elapsed (request %d)", name, i)
			}
			if err := d.Generate(out, nil); err != nil {
				t.Fatalf("%s: generate %d: %v", name, i, err)
			}
		}
		if !d.NeedsReseed() {
			t.Errorf("%s: NeedsReseed false after interval elapsed", name)
		}
		if err := d.Generate(out, nil); !errors.Is(err, ErrReseedRequired) {
			t.Errorf("%s: want ErrReseedRequired, got %v", name, err)
		}
		if err := d.Reseed(make([]byte, d.SeedLen()), nil); err != nil {
			t.Fatalf("%s: reseed: %v", name, err)
		}
		if d.NeedsReseed() {
			t.Errorf("%s: NeedsReseed still true after Reseed", name)
		}
		if err := d.Generate(out, nil); err != nil {
			t.Errorf("%s: generate after reseed: %v", name, err)
		}
		if got := d.Reseeds(); got != 2 { // instantiate + explicit reseed
			t.Errorf("%s: Reseeds() = %d, want 2", name, got)
		}
		if got := d.Generates(); got != 4 {
			t.Errorf("%s: Generates() = %d, want 4", name, got)
		}
	}
}

// TestFirstInterval checks the pool-staggering knob: the first seed serves
// only FirstInterval requests, later seeds the full interval.
func TestFirstInterval(t *testing.T) {
	for name, d := range newBoth(t, Options{ReseedInterval: 10, FirstInterval: 2}) {
		out := make([]byte, 8)
		for i := 0; i < 2; i++ {
			if err := d.Generate(out, nil); err != nil {
				t.Fatalf("%s: generate %d: %v", name, i, err)
			}
		}
		if !d.NeedsReseed() {
			t.Fatalf("%s: FirstInterval=2 not honoured", name)
		}
		if err := d.Reseed(make([]byte, d.SeedLen()), nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := d.Generate(out, nil); err != nil {
				t.Fatalf("%s: post-reseed generate %d: %v", name, i, err)
			}
		}
		if !d.NeedsReseed() {
			t.Errorf("%s: full interval not honoured after first reseed", name)
		}
	}
}

// TestDeterminismAndDivergence: identical seeds give identical streams;
// a reseed or additional input diverges them.
func TestDeterminismAndDivergence(t *testing.T) {
	for _, name := range []string{"ctr-aes256", "chacha20"} {
		a := newBoth(t, Options{})[name]
		b := newBoth(t, Options{})[name]
		outA := make([]byte, 96)
		outB := make([]byte, 96)
		if err := a.Generate(outA, nil); err != nil {
			t.Fatal(err)
		}
		if err := b.Generate(outB, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(outA, outB) {
			t.Errorf("%s: same seed, different output", name)
		}
		// Additional input must change the stream.
		if err := a.Generate(outA, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if err := b.Generate(outB, nil); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(outA, outB) {
			t.Errorf("%s: additional input did not change the output", name)
		}
	}
}

// TestChaChaBacktrackingErasure: consecutive Generate outputs must differ
// (the key is replaced every request) and a zeroed request after a large one
// must not replay keystream.
func TestChaChaOutputsNeverRepeat(t *testing.T) {
	d, err := NewChaCha(make([]byte, chachaSeedLen), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[16]byte]bool)
	out := make([]byte, 16)
	for i := 0; i < 1000; i++ {
		if err := d.Generate(out, nil); err != nil {
			t.Fatal(err)
		}
		var k [16]byte
		copy(k[:], out)
		if seen[k] {
			t.Fatalf("output repeated at request %d", i)
		}
		seen[k] = true
	}
}

// TestChaChaGenerateNoAlloc: the fast-tier Generate allocates nothing once
// instantiated.
func TestChaChaGenerateNoAlloc(t *testing.T) {
	d, err := NewChaCha(make([]byte, chachaSeedLen), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.Generate(out, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ChaCha Generate allocates %.1f times per op, want 0", allocs)
	}
}

// TestCTRGenerateAllocFloor pins CTR_DRBG's known allocation floor: every
// Generate ends with CTR_DRBG_Update, which installs a new AES key, and the
// standard library can only re-key by building a new cipher with
// aes.NewCipher — exactly one allocation per Generate.
func TestCTRGenerateAllocFloor(t *testing.T) {
	d, err := NewCTR(make([]byte, ctrSeedLen), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.Generate(out, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("CTR Generate allocates %.1f times per op, want exactly 1 (the aes.NewCipher re-key)", allocs)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.ReseedInterval != DefaultReseedInterval || o.MaxRequestBytes != DefaultMaxRequestBytes {
		t.Errorf("zero Options resolved to %+v", o)
	}
	if o.FirstInterval != o.ReseedInterval {
		t.Errorf("FirstInterval default = %d, want ReseedInterval %d", o.FirstInterval, o.ReseedInterval)
	}
	o = Options{ReseedInterval: 10, FirstInterval: 99}.withDefaults()
	if o.FirstInterval != 10 {
		t.Errorf("FirstInterval above ReseedInterval not clamped: %d", o.FirstInterval)
	}
}

func TestLedger(t *testing.T) {
	var l Ledger
	l.CreditBits(4096)
	l.CreditBits(4096)
	l.DebitBits(384)
	if got := l.Credited(); got != 8192 {
		t.Errorf("Credited() = %d, want 8192", got)
	}
	if got := l.Debited(); got != 384 {
		t.Errorf("Debited() = %d, want 384", got)
	}
	if got := l.Balance(); got != 8192-384 {
		t.Errorf("Balance() = %d, want %d", got, 8192-384)
	}
	// Negative balances are representable (seed debited before its screening
	// window completes).
	var early Ledger
	early.DebitBits(384)
	if got := early.Balance(); got != -384 {
		t.Errorf("early Balance() = %d, want -384", got)
	}
}

// TestLedgerConcurrent drives credits and debits from concurrent goroutines;
// run under -race this checks the atomic contract.
func TestLedgerConcurrent(t *testing.T) {
	var l Ledger
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				l.CreditBits(2)
				l.DebitBits(1)
				_ = l.Balance()
			}
		}()
	}
	wg.Wait()
	if got := l.Balance(); got != 8000 {
		t.Errorf("Balance() = %d, want 8000", got)
	}
}
