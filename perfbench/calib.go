package main

import (
	"hash/fnv"
	"math"
	"time"
)

// The calibration kernel is a fixed amount of work that shares no code
// with the program under test: a pure-Go radix-2 complex FFT over a
// fixed pseudo-random signal. Host speed drifts from minute to minute
// on shared machines; timing this kernel in the same run, while the
// daemon is idle, gives a yardstick to divide that drift out of the
// gated timings.
//
// The transform is 2^17 points, about 6 MB with its tables, so like the
// daemon's own 2^15–2^17-point GCC and signature transforms it runs out
// of cache and feels memory contention from neighbouring tenants. On a
// 2-vCPU VM a 4096-point kernel that fits in cache tracked the wake
// latency drift but not the listen candidate path; this size tracked
// both (run-to-run spread of raw/kernel 2–3% on one seed).
const calibFFTSize = 1 << 17

// refKernelMS is a typical median kernel time on the reference host (a
// 2-vCPU x86-64 VM, Go 1.24). Calibrated timings are reported as
// raw × refKernelMS / (this run's median kernel time), i.e. in
// reference-host milliseconds. It is a fixed scale, not a measured
// value: changing it rescales every calibrated metric, so it is pinned
// together with the kernel's checksum in calib_test.go.
const refKernelMS = 10.5

// calibKernel holds the kernel's input and scratch so that timing it
// allocates nothing.
type calibKernel struct {
	in     []complex128
	buf    []complex128
	twid   []complex128
	bitrev []int
}

func newCalibKernel() *calibKernel {
	n := calibFFTSize
	k := &calibKernel{
		in:     make([]complex128, n),
		buf:    make([]complex128, n),
		twid:   make([]complex128, n/2),
		bitrev: make([]int, n),
	}
	// A fixed 64-bit LCG: the input never depends on a seed or on the
	// standard library's generators.
	state := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11)/float64(1<<53) - 0.5
	}
	for i := range k.in {
		k.in[i] = complex(next(), next())
	}
	for i := range k.twid {
		s, c := math.Sincos(-2 * math.Pi * float64(i) / float64(n))
		k.twid[i] = complex(c, s)
	}
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i := range k.bitrev {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		k.bitrev[i] = r
	}
	return k
}

// fft transforms buf in place. Products are rounded explicitly so the
// compiler cannot fuse them into FMAs on any architecture, which keeps
// the output bit-identical everywhere.
func (k *calibKernel) fft() {
	n := len(k.buf)
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for start := 0; start < n; start += size {
			for j := 0; j < half; j++ {
				w := k.twid[j*step]
				b := k.buf[start+j+half]
				re := float64(real(w)*real(b)) - float64(imag(w)*imag(b))
				im := float64(real(w)*imag(b)) + float64(imag(w)*real(b))
				a := k.buf[start+j]
				k.buf[start+j] = complex(real(a)+re, imag(a)+im)
				k.buf[start+j+half] = complex(real(a)-re, imag(a)-im)
			}
		}
	}
}

// run performs one kernel call: the bit-reversal permutation of the
// fixed input, then one forward transform.
func (k *calibKernel) run() {
	for i, r := range k.bitrev {
		k.buf[r] = k.in[i]
	}
	k.fft()
}

// time runs the kernel once and returns its wall time in milliseconds.
func (k *calibKernel) time() float64 {
	start := time.Now()
	k.run()
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// checksum hashes the kernel's output bits (FNV-64a).
func (k *calibKernel) checksum() uint64 {
	k.run()
	h := fnv.New64a()
	var b [8]byte
	for _, v := range k.buf {
		for _, f := range [2]float64{real(v), imag(v)} {
			u := math.Float64bits(f)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
