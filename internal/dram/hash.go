// Package dram models commodity DRAM devices at the level of detail the
// D-RaNGe paper depends on: channels, banks, subarrays, rows and cells, a
// per-cell analog activation (bitline development) model with process
// variation, data-pattern (neighbour coupling) dependence, temperature
// dependence, and a pluggable physical-noise source.
//
// The model is "procedural": every cell's manufacturing character is a pure
// function of (device serial, bank, row, column) through a 64-bit mixing
// function, so a device costs no memory for its variation map and a cell's
// character is perfectly stable over time — matching the paper's observation
// (Section 5.4) that a cell's activation-failure probability does not change
// significantly across 15 days of testing.
package dram

// splitmix64 advances the state and returns the next value of the SplitMix64
// sequence. It is used as the mixing core of the procedural variation model
// and of the deterministic noise source.
func splitmix64(state uint64) (next uint64, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return state, z
}

// mix64 hashes an arbitrary sequence of 64-bit words into a single 64-bit
// value with good avalanche behaviour.
func mix64(words ...uint64) uint64 {
	h := uint64(0x8c2f9d71ab3e07b5)
	for _, w := range words {
		h ^= w
		_, h = splitmix64(h)
	}
	return h
}

// unitFloat maps a 64-bit hash to a float64 uniformly distributed in [0, 1).
func unitFloat(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// gaussianFromHash converts two uniform hashes into one standard-normal
// sample using the Box–Muller transform; callers that need independent
// samples must supply independent hashes.
func gaussianFromHash(h1, h2 uint64) float64 {
	return boxMuller(unitFloat(h1), unitFloat(h2))
}
