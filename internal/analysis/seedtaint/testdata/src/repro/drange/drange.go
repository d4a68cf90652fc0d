// Package drange is the seedtaint target package: its exported
// Read/ReadBits/ReadRaw/Uint64 methods are exit sinks, and the testdata
// cases below cover taint propagated cross-package through repro/sampler,
// cleansing by health.Monitor, the raw-tier guard, the waiver grammar, and
// the DRBG and post-processing sinks.
package drange

import (
	"errors"

	"repro/internal/device"
	"repro/internal/drbg"
	"repro/internal/health"
	"repro/internal/postproc"
	"repro/sampler"
)

// Leaky delivers raw entropy from its exported reader: the cross-package
// taint (device read inside sampler.Harvest) must reach the exit sink.
type Leaky struct {
	dev *device.Device
}

func (s *Leaky) Read(p []byte) (int, error) {
	if err := sampler.Harvest(s.dev, p); err != nil {
		return 0, err
	}
	return len(p), nil // want "Leaky\\.Read writes raw device entropy that has not passed health\\.Monitor into p"
}

// WordSource returns raw entropy by value rather than through a buffer.
type WordSource struct {
	dev *device.Device
}

func (w *WordSource) Uint64() (uint64, error) {
	words, err := w.dev.ReadWord(0, 0)
	if err != nil {
		return 0, err
	}
	return words[0], nil // want "WordSource\\.Uint64 returns raw device entropy that has not passed health\\.Monitor"
}

// Clean streams the harvest through the monitor before delivering: no
// diagnostic.
type Clean struct {
	dev *device.Device
	mon *health.Monitor
}

func (s *Clean) ReadBits(n int) ([]byte, error) {
	out := make([]byte, n)
	if err := sampler.Harvest(s.dev, out); err != nil {
		return nil, err
	}
	if v := s.mon.IngestPacked(out, n*8); v != nil {
		return nil, errors.New(v.Detail)
	}
	return out, nil
}

// Guarded serves raw only on the documented monitor==nil tier: no
// diagnostic on either path.
type Guarded struct {
	dev *device.Device
	mon *health.Monitor
}

func (g *Guarded) Read(p []byte) (int, error) {
	if g.mon == nil {
		if err := sampler.Harvest(g.dev, p); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	if err := sampler.Harvest(g.dev, p); err != nil {
		return 0, err
	}
	if v := g.mon.IngestPacked(p, len(p)*8); v != nil {
		return 0, errors.New(v.Detail)
	}
	return len(p), nil
}

// Raw holds the sanctioned waiver: the documented raw tier is exempt.
type Raw struct {
	dev *device.Device
}

//drange:seedtaint-exempt documented raw tier
func (r *Raw) ReadRaw(p []byte) (int, error) {
	if err := sampler.Harvest(r.dev, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// BadWaiver holds a waiver that breaks both grammar rules: no reason, and
// the function is not ReadRaw.
type BadWaiver struct {
	dev *device.Device
}

//drange:seedtaint-exempt
func (b *BadWaiver) Uint64() (uint64, error) { // want "requires a reason" "may only waive ReadRaw"
	words, err := b.dev.ReadWord(0, 0)
	if err != nil {
		return 0, err
	}
	return words[0], nil
}

// SeedDRBG feeds a raw harvest straight into a DRBG instantiation.
func SeedDRBG(d *device.Device) (*drbg.DRBG, error) {
	buf := make([]byte, 48)
	if err := sampler.Harvest(d, buf); err != nil {
		return nil, err
	}
	return drbg.NewChaCha(buf, nil, drbg.Options{}) // want "raw device entropy reaches the DRBG instantiation seed without passing health\\.Monitor"
}

// ReseedDRBG feeds a raw harvest into a reseed.
func ReseedDRBG(d *device.Device, g *drbg.DRBG) error {
	buf := make([]byte, 48)
	if err := sampler.Harvest(d, buf); err != nil {
		return err
	}
	return g.Reseed(buf, nil) // want "raw device entropy reaches DRBG reseed material without passing health\\.Monitor"
}

// Whiten feeds a raw harvest into the post-processing chain.
func Whiten(d *device.Device) ([]byte, error) {
	buf := make([]byte, 32)
	if err := sampler.Harvest(d, buf); err != nil {
		return nil, err
	}
	return postproc.Process(buf), nil // want "raw device entropy reaches the post-processing chain input without passing health\\.Monitor"
}

// WhitenInto feeds a raw harvest into the chain's appending entry point.
func WhitenInto(d *device.Device, dst []byte) ([]byte, error) {
	buf := make([]byte, 32)
	if err := sampler.Harvest(d, buf); err != nil {
		return nil, err
	}
	return postproc.AppendPacked(dst, buf), nil // want "raw device entropy reaches the post-processing chain input without passing health\\.Monitor"
}

// ScreenedSeed is the clean counterpart of SeedDRBG: monitored entropy may
// instantiate a DRBG.
func ScreenedSeed(d *device.Device, m *health.Monitor) (*drbg.DRBG, error) {
	buf := make([]byte, 48)
	if err := sampler.Harvest(d, buf); err != nil {
		return nil, err
	}
	if v := m.IngestPacked(buf, len(buf)*8); v != nil {
		return nil, errors.New(v.Detail)
	}
	return drbg.NewChaCha(buf, nil, drbg.Options{})
}
