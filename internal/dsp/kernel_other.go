//go:build !amd64

package dsp

// Off amd64 the Go loops are the only path: useAVX2 stays false, so
// nothing calls the kernels below.

func cpuHasAVX2() bool { return false }

func stagePairAVX2(x, w []complex128, h int) { panic("dsp: no AVX2 kernels on this architecture") }

func stagePair1AVX2(x, w []complex128) { panic("dsp: no AVX2 kernels on this architecture") }

func stage1AVX2(x []complex128, w complex128) { panic("dsp: no AVX2 kernels on this architecture") }

func butterfliesAVX2(lo, hi, w []complex128) { panic("dsp: no AVX2 kernels on this architecture") }

func unpackAVX2(lo, hi, w []complex128) { panic("dsp: no AVX2 kernels on this architecture") }

func repackAVX2(z, lo, hi, w []complex128, plo, phi []int32) {
	panic("dsp: no AVX2 kernels on this architecture")
}

func windowAVX2(dst, x, win []float64) { panic("dsp: no AVX2 kernels on this architecture") }

func periodogramAVX2(psd []float64, spec []complex128, winPower float64) {
	panic("dsp: no AVX2 kernels on this architecture")
}

func cascadeAVX2(c *cascadeLanes, out, in []float64) {
	panic("dsp: no AVX2 kernels on this architecture")
}
