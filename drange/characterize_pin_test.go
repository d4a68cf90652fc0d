package drange

import (
	"context"
	"reflect"
	"testing"
)

// TestCharacterizePinned pins the output of characterization: the sealed
// checksum and the RNG-cell list of two deterministic devices over a small
// region. Every DRAM command and noise draw of identification feeds the
// profile, so a change to the screening pass, the deep pass or the data
// pattern that is meant to be a pure speed-up must leave these values as
// they are.
func TestCharacterizePinned(t *testing.T) {
	cases := []struct {
		serial   uint64
		checksum string
		cells    [][3]int // bank, row, col
	}{
		{
			serial:   1,
			checksum: "sha256:a8ab62b862fb759a88ec37aaf770b2390f6e21339d1cb8289eeed867e838e977",
			cells: [][3]int{
				{0, 0, 86}, {0, 1, 447}, {0, 5, 680}, {0, 6, 789}, {0, 13, 680}, {0, 13, 789},
				{0, 14, 485}, {1, 2, 495}, {1, 9, 528}, {1, 9, 951}, {1, 10, 413}, {1, 15, 63},
			},
		},
		{
			serial:   7,
			checksum: "sha256:5f0132bc6b923c8617c7918f85e9c90665ee91305f98b2af7a91fe9c5687a454",
			cells: [][3]int{
				{0, 0, 832}, {0, 1, 582}, {0, 2, 582}, {0, 3, 24}, {0, 3, 832}, {0, 4, 855},
				{0, 9, 172}, {0, 11, 317}, {0, 13, 172}, {0, 14, 317}, {0, 15, 172}, {0, 15, 582},
				{0, 15, 832}, {1, 1, 652}, {1, 3, 995}, {1, 4, 155}, {1, 5, 822}, {1, 14, 114},
				{1, 15, 822},
			},
		},
	}
	for _, tc := range cases {
		p, err := Characterize(context.Background(),
			WithManufacturer("A"),
			WithSerial(tc.serial),
			WithDeterministic(true),
			WithGeometry(quickGeometry()),
			WithProfilingRegion(16, 4, 2),
			WithSamples(300),
			WithTolerance(0.4),
			WithMaxBiasDelta(0.03),
			WithScreenIterations(25),
		)
		if err != nil {
			t.Fatalf("serial %d: %v", tc.serial, err)
		}
		cells := make([][3]int, len(p.Cells))
		for i, c := range p.Cells {
			cells[i] = [3]int{c.Bank, c.Row, c.Col}
		}
		if !reflect.DeepEqual(cells, tc.cells) {
			t.Errorf("serial %d: cells = %v, want %v", tc.serial, cells, tc.cells)
		}
		if p.Checksum != tc.checksum {
			t.Errorf("serial %d: checksum = %s, want %s", tc.serial, p.Checksum, tc.checksum)
		}
	}
}

// passThroughDevice forwards every call to the Device it embeds. It hides
// the simulator's concrete type, so the pipeline adapts it like any
// caller-supplied backend, and the memory controller, finding no fused
// sampling path, hands it every command of every probe separately.
type passThroughDevice struct{ Device }

// TestCharacterizePerCommandMatchesFused characterizes one device twice,
// once with the simulator itself, whose controller takes every probe as one
// fused call, and once through passThroughDevice, whose controller issues
// each command separately. The profiles' checksums and the devices'
// operation counts must be equal, and equal to the pinned checksum of a
// plain sim-backend run: at the benchmark's region and at
// TestCharacterizePinned's.
func TestCharacterizePerCommandMatchesFused(t *testing.T) {
	cases := []struct {
		name               string
		geom               Geometry
		serial             uint64
		rows, words, banks int
		checksum           string
	}{
		{
			name: "benchmark region", serial: 59, rows: 48, words: 8, banks: 8,
			geom:     Geometry{Banks: 8, RowsPerBank: 256, ColsPerRow: 4096, SubarrayRows: 128, WordBits: 256},
			checksum: "sha256:08375e8cc54ba3b501d4d84e72b0f1a689281b8e2f31e762c9aa34f7568d5f5e",
		},
		{
			name: "pinned region", serial: 1, rows: 16, words: 4, banks: 2, geom: quickGeometry(),
			checksum: "sha256:a8ab62b862fb759a88ec37aaf770b2390f6e21339d1cb8289eeed867e838e977",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{
				WithManufacturer("A"),
				WithSerial(tc.serial),
				WithDeterministic(true),
				WithGeometry(tc.geom),
				WithProfilingRegion(tc.rows, tc.words, tc.banks),
				WithSamples(300),
				WithTolerance(0.4),
				WithMaxBiasDelta(0.03),
				WithScreenIterations(25),
			}
			var sums [2]string
			var stats [2]DeviceStats
			for i, wrap := range []bool{false, true} {
				dev, err := OpenBackend("sim", BackendParams{Manufacturer: "A", Serial: tc.serial, Deterministic: true, Geometry: tc.geom})
				if err != nil {
					t.Fatal(err)
				}
				if wrap {
					dev = passThroughDevice{dev}
				}
				p, err := Characterize(context.Background(), append(opts, WithDevice(dev))...)
				if err != nil {
					t.Fatalf("wrapped %v: %v", wrap, err)
				}
				sums[i], stats[i] = p.Checksum, dev.OpStats()
			}
			if sums[0] != tc.checksum || sums[1] != tc.checksum {
				t.Errorf("checksums: fused %s, per-command %s, want %s", sums[0], sums[1], tc.checksum)
			}
			if stats[0] != stats[1] || stats[0].InjectedFlips == 0 {
				t.Errorf("device stats: fused %+v, per-command %+v (want equal, with flips)", stats[0], stats[1])
			}
		})
	}
}
