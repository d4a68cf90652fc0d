// Package device is a stand-in for the real repro/internal/device contract;
// entropyflow keys on the package path suffix, so this fake exercises the
// same matching.
package device

// Device mirrors the entropy-bearing subset of the real device contract.
type Device interface {
	Activate(bank, row int, trcdNS float64) error
	ReadWord(bank, wordIdx int) ([]uint64, error)
	ReadRowRaw(bank, row int) ([]uint64, error)
	StartupRow(bank, row int) ([]uint64, error)
}

// WordReaderInto is the allocation-free read capability.
type WordReaderInto interface {
	ReadWordInto(bank, wordIdx int, dst []uint64) error
}

// WordSampler is the fused sample capability: an ACT and its first READ in
// one call.
type WordSampler interface {
	SampleWord(bank, row, wordIdx int, mode uint8, trcdNS float64, dst, restore []uint64) error
}
