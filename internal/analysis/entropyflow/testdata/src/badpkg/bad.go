// Package badpkg reads raw device entropy from outside the controller layer.
package badpkg

import "repro/internal/device"

func Harvest(dev device.Device) ([]uint64, error) {
	if err := dev.Activate(0, 1, 6.0); err != nil { // want "raw device read device.Activate"
		return nil, err
	}
	return dev.ReadWord(0, 0) // want "raw device read device.ReadWord"
}

func Setup(dev device.Device) ([]uint64, error) {
	return dev.ReadRowRaw(0, 1) // setup-time read: not banned
}

func Grab(dev device.WordReaderInto, dst []uint64) error {
	return dev.ReadWordInto(0, 0, dst) // want "raw device read device.ReadWordInto"
}

func Sample(dev device.WordSampler, dst, restore []uint64) error {
	return dev.SampleWord(0, 1, 0, 0, 10, dst, restore) // want "raw device read device.SampleWord"
}
