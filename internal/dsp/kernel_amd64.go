package dsp

// cpuHasAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers across context switches.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the SSE and the upper YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// stagePairAVX2 is stagePair for h >= 2 over w = tw[h-1 : 4h-1], two
// complex values per YMM register; len(x) must be a multiple of 4h.
//
//go:noescape
func stagePairAVX2(x, w []complex128, h int)

// stagePair1AVX2 is stagePair for h = 1 over w = tw[0:3], on two
// blocks of four values per iteration; len(x) must be a multiple of 8.
//
//go:noescape
func stagePair1AVX2(x, w []complex128)

// stage1AVX2 is the lone butterfly stage of half-size 1, with twiddle
// w, on two index pairs per iteration; len(x) must be a multiple of 4.
//
//go:noescape
func stage1AVX2(x []complex128, w complex128)

// butterfliesAVX2 is butterflies over the first len(lo)&^1 indices.
//
//go:noescape
func butterfliesAVX2(lo, hi, w []complex128)

// unpackAVX2 is the real-FFT unpack of the bins in lo, two per
// iteration: hi holds their partner bins, the first lo's last, and w
// their twiddles; len(lo) must be even and lo must not overlap hi.
//
//go:noescape
func unpackAVX2(lo, hi, w []complex128)

// repackAVX2 is the inverse real-FFT repack of the bins in lo, two per
// iteration: hi holds their partner bins, the first lo's last, w their
// twiddles, and plo and phi the slots of z the results go to, laid out
// as lo and hi; len(lo) must be even.
//
//go:noescape
func repackAVX2(z, lo, hi, w []complex128, plo, phi []int32)

// windowAVX2 sets dst[i] = x[i]·win[i] for the first len(dst)&^3
// indices.
//
//go:noescape
func windowAVX2(dst, x, win []float64)

// periodogramAVX2 adds |spec[i]|²/winPower to psd[i] for the first
// len(psd)&^3 indices.
//
//go:noescape
func periodogramAVX2(psd []float64, spec []complex128, winPower float64)

// cascadeAVX2 runs len(out) steps of the skewed cascade in c: step k
// writes the last section's output to out[k], and step k+1 feeds
// in[k] to the first section.
//
//go:noescape
func cascadeAVX2(c *cascadeLanes, out, in []float64)
