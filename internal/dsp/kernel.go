package dsp

// useAVX2 selects the amd64 AVX2 kernels for the radix-2 butterflies,
// the real-FFT unpack and repack, the Welch window and periodogram,
// and the band-pass cascade. It is set once, at start-up, from the CPU
// check; only tests flip it, to run the same inputs through both paths.
// The Go loops are the only path off amd64 and the oracle the kernels
// are tested against: both give the same bits.
var useAVX2 = cpuHasAVX2()

// cascadeLanes is the register image of a band-pass cascade of 2 to 8
// sections for cascadeAVX2: lane j holds section j, and lanes past the
// last section hold zeros.
type cascadeLanes struct {
	b0, b1, b2, a1, a2 [8]float64 // section coefficients
	z1, z2             [8]float64 // section state, read and written back
	// y holds, on entry, each lane's input for the kernel's first
	// step and, on return, each lane's output of its last step.
	y [8]float64
	// sel moves the last section's lane, within its half of the
	// lanes, to element 0 (VPERMPS indices); hi reports that the last
	// section sits in lanes 4-7.
	sel [8]uint32
	hi  uint64
}
