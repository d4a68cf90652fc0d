// Package memctrl is the testdata stand-in for repro/internal/memctrl:
// SamplePhase is a seedtaint source by name and package suffix, since its
// reads land in the Dst buffers of the caller's ops.
package memctrl

import "repro/internal/device"

type SampleOp struct {
	Bank, Row, Word int
	Dst, Restore    []uint64
}

type Controller struct{ dev *device.Device }

func (c *Controller) SamplePhase(ops []SampleOp) error {
	for i := range ops {
		op := &ops[i]
		if err := c.dev.SampleWord(op.Bank, op.Row, op.Word, 0, 10, op.Dst, op.Restore); err != nil {
			return err
		}
	}
	return nil
}
