package sim

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

func newController(t *testing.T) *memctrl.Controller {
	t.Helper()
	dev, err := dram.NewDevice(dram.Config{
		Serial:       77,
		Manufacturer: dram.ManufacturerA,
		Noise:        dram.NewDeterministicNoise(77),
	})
	if err != nil {
		t.Fatal(err)
	}
	return memctrl.NewController(dev)
}

func TestReplayWorkloadIdleFraction(t *testing.T) {
	cfg := workload.Config{Banks: 8, RowsPerBank: 1024, WordsPerRow: 32, DurationNS: 200000, Seed: 3}

	heavyReqs, err := workload.Generate(workload.Profiles()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := ReplayWorkload(newController(t), heavyReqs)
	if err != nil {
		t.Fatal(err)
	}

	lightReqs, err := workload.Generate(workload.Profiles()[len(workload.Profiles())-1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	light, err := ReplayWorkload(newController(t), lightReqs)
	if err != nil {
		t.Fatal(err)
	}

	if heavy.IdleFraction < 0 || heavy.IdleFraction > 1 || light.IdleFraction < 0 || light.IdleFraction > 1 {
		t.Fatalf("idle fractions out of range: heavy=%v light=%v", heavy.IdleFraction, light.IdleFraction)
	}
	if light.IdleFraction <= heavy.IdleFraction {
		t.Errorf("light workload should leave more idle bandwidth: heavy=%v light=%v", heavy.IdleFraction, light.IdleFraction)
	}
	if heavy.Requests != len(heavyReqs) {
		t.Errorf("request count mismatch: %d vs %d", heavy.Requests, len(heavyReqs))
	}
}

func TestReplayWorkloadValidation(t *testing.T) {
	if _, err := ReplayWorkload(newController(t), nil); err == nil {
		t.Error("empty trace accepted")
	}
	bad := []workload.Request{{Bank: 99, Row: 0, WordIdx: 0}}
	if _, err := ReplayWorkload(newController(t), bad); err == nil {
		t.Error("out-of-geometry request accepted")
	}
}

func TestIdleBandwidthThroughput(t *testing.T) {
	got, err := IdleBandwidthThroughputMbps(100, 0.5)
	if err != nil || got != 50 {
		t.Errorf("IdleBandwidthThroughputMbps(100, 0.5) = %v, %v; want 50, nil", got, err)
	}
	if _, err := IdleBandwidthThroughputMbps(-1, 0.5); err == nil {
		t.Error("negative throughput accepted")
	}
	if _, err := IdleBandwidthThroughputMbps(1, 1.5); err == nil {
		t.Error("idle fraction above 1 accepted")
	}
}
