// Package device is the testdata stand-in for repro/internal/device: its
// read methods are seedtaint sources by name and package suffix.
package device

type Device struct{ state uint64 }

func (d *Device) ReadWord(bank, wordIdx int) ([]uint64, error) {
	return []uint64{d.state}, nil
}

func (d *Device) ReadWordInto(bank, wordIdx int, dst []uint64) (int, error) {
	for i := range dst {
		dst[i] = d.state
	}
	return len(dst), nil
}

// SampleWord is the fused sample of one word, its optional commands
// selected by mode: dst receives the read.
func (d *Device) SampleWord(bank, row, wordIdx int, mode uint8, trcdNS float64, dst, restore []uint64) error {
	for i := range dst {
		dst[i] = d.state
	}
	return nil
}
