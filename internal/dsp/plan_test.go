package dsp

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"sync"
	"testing"
)

func randReal(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// TestRadix2TwiddleAccuracy4096 pins the accuracy win from the plan's
// precomputed twiddle tables: the old implementation grew one rounding
// error per butterfly through its running w *= wStep product, so at
// n=4096 its error against the naive DFT was orders of magnitude above
// table lookup. The planned path must stay within 1e-9 absolute — far
// tighter than the old test's 1e-8*n (≈4e-5 at this size).
func TestRadix2TwiddleAccuracy4096(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewPCG(21, 22))
	x := randComplex(n, rng)
	got := forwardCopy(x)
	want := naiveDFT(x)
	if err := maxErr(got, want); err > 1e-9 {
		t.Errorf("n=%d: max error %g vs naive DFT, want <= 1e-9", n, err)
	}
}

// TestPlannedMatchesNaiveRandomSizes is the randomized property test of
// the acceptance criteria: planned outputs within 1e-9 of the reference
// for power-of-two sizes and 1e-7 through the cached Bluestein path.
func TestPlannedMatchesNaiveRandomSizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	pow2 := []int{2, 8, 64, 256, 1024, 4096}
	nonPow2 := []int{3, 5, 12, 100, 384, 1000, 1458}
	for _, n := range pow2 {
		x := randComplex(n, rng)
		if err := maxErr(forwardCopy(x), naiveDFT(x)); err > 1e-9 {
			t.Errorf("pow2 n=%d: max error %g > 1e-9", n, err)
		}
	}
	for _, n := range nonPow2 {
		x := randComplex(n, rng)
		if err := maxErr(forwardCopy(x), naiveDFT(x)); err > 1e-7 {
			t.Errorf("bluestein n=%d: max error %g > 1e-7", n, err)
		}
	}
}

// TestBluesteinCachedPath runs several transforms of the same
// non-power-of-two size back to back so the second and later ones hit
// the cached chirp and pre-transformed kernel, and checks forward
// correctness plus round-trip through the cached inverse.
func TestBluesteinCachedPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	for _, n := range []int{7, 30, 100, 1000} {
		var firstErr, secondErr float64
		for rep := 0; rep < 3; rep++ {
			x := randComplex(n, rng)
			err := maxErr(forwardCopy(x), naiveDFT(x))
			if rep == 0 {
				firstErr = err
			} else {
				secondErr = err
			}
			if err > 1e-7 {
				t.Errorf("n=%d rep=%d: max error %g > 1e-7", n, rep, err)
			}
			back := inverseCopy(forwardCopy(x))
			if err := maxErr(x, back); err > 1e-9*float64(n) {
				t.Errorf("n=%d rep=%d: round-trip error %g", n, rep, err)
			}
		}
		// The cached path must not degrade relative to the first call
		// (both go through the same plan; this guards cache poisoning).
		if secondErr > 10*firstErr+1e-12 {
			t.Errorf("n=%d: cached-path error %g much worse than first call %g", n, secondErr, firstErr)
		}
	}
}

// TestRFFTMatchesFullTransform checks the packed real transform against
// the full complex path across even, odd, power-of-two and Bluestein
// sizes.
func TestRFFTMatchesFullTransform(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	for _, n := range []int{1, 2, 4, 6, 16, 100, 256, 384, 1000, 1024, 337, 4095} {
		x := randReal(n, rng)
		got := RFFT(nil, x)
		c := make([]complex128, n)
		for i, v := range x {
			c[i] = complex(v, 0)
		}
		want := naiveDFT(c)[:n/2+1]
		tol := 1e-9
		if !IsPow2(n) {
			tol = 1e-7
		}
		for i := range got {
			if d := cmplx.Abs(got[i] - want[i]); d > tol {
				t.Errorf("n=%d bin %d: |%v - %v| = %g > %g", n, i, got[i], want[i], d, tol)
				break
			}
		}
	}
}

// TestIRFFTInvertsRFFT round-trips real signals through the packed
// forward and inverse transforms.
func TestIRFFTInvertsRFFT(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 30))
	for _, n := range []int{1, 2, 4, 6, 16, 100, 256, 1000, 1024, 337} {
		x := randReal(n, rng)
		spec := RFFT(nil, x)
		back := Plan(n).IRFFT(nil, spec)
		for i := range x {
			if math.Abs(x[i]-back[i]) > 1e-8 {
				t.Errorf("n=%d sample %d: %g vs %g", n, i, x[i], back[i])
				break
			}
		}
	}
}

// TestRFFTReusesDst verifies the dst-reusing contract: a buffer with
// enough capacity is written in place and returned.
func TestRFFTReusesDst(t *testing.T) {
	x := randReal(256, rand.New(rand.NewPCG(31, 32)))
	dst := make([]complex128, 256/2+1)
	got := RFFT(dst, x)
	if &got[0] != &dst[0] {
		t.Error("RFFT did not reuse dst")
	}
	rdst := make([]float64, 256)
	back := Plan(256).IRFFT(rdst, got)
	if &back[0] != &rdst[0] {
		t.Error("IRFFT did not reuse dst")
	}
}

// TestInPlaceVariantsMatchAllocating checks RFFT into a reused buffer
// against the allocating HalfSpectrum.
func TestInPlaceVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	r := randReal(128, rng)
	half := HalfSpectrum(r)
	into := RFFT(make([]complex128, 0, 65), r)
	if len(into) != len(half) {
		t.Fatalf("RFFT length %d, want %d", len(into), len(half))
	}
	if err := maxErr(into, half); err > 0 {
		t.Errorf("RFFT differs by %g", err)
	}
}

// TestMagnitudePowerInto checks the dst-reusing spectral reductions.
func TestMagnitudePowerInto(t *testing.T) {
	spec := []complex128{3 + 4i, -1, 2i}
	mag := MagnitudeInto(make([]float64, 0, 3), spec)
	pow := PowerInto(make([]float64, 0, 3), spec)
	wantMag := []float64{5, 1, 2}
	wantPow := []float64{25, 1, 4}
	for i := range spec {
		if math.Abs(mag[i]-wantMag[i]) > 1e-12 {
			t.Errorf("mag[%d] = %g, want %g", i, mag[i], wantMag[i])
		}
		if math.Abs(pow[i]-wantPow[i]) > 1e-12 {
			t.Errorf("pow[%d] = %g, want %g", i, pow[i], wantPow[i])
		}
	}
	// Growing path.
	if got := MagnitudeInto(nil, spec); len(got) != 3 {
		t.Errorf("MagnitudeInto(nil) length %d", len(got))
	}
}

// TestPlanConcurrentUse hammers one plan (and the plan cache) from many
// goroutines; run under -race via `make check`, this pins the
// plans-immutable-after-build concurrency contract.
func TestPlanConcurrentUse(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed+1))
			for it := 0; it < 20; it++ {
				for _, n := range []int{64, 100, 1024} {
					x := randReal(n, rng)
					spec := RFFT(nil, x)
					back := Plan(n).IRFFT(nil, spec)
					for i := range x {
						if math.Abs(x[i]-back[i]) > 1e-8 {
							t.Errorf("n=%d: concurrent round-trip mismatch", n)
							return
						}
					}
				}
			}
		}(uint64(w))
	}
	wg.Wait()
}

// --- allocation-regression gates ---

// The alloc gates pin steady-state allocation counts after the pools
// and dst-reuse land. They are set at the improved level (with a little
// headroom only where the runtime itself may allocate), not at zero
// across the board: paths that hand back fresh result slices keep
// those allocations by design.

// TestAllocsRFFTSteadyState: with a reused dst and a cached plan, the
// packed power-of-two real transform performs no allocations at all.
func TestAllocsRFFTSteadyState(t *testing.T) {
	x := randReal(1024, rand.New(rand.NewPCG(37, 38)))
	dst := make([]complex128, 513)
	p := Plan(1024)
	p.RFFT(dst, x) // warm the plan
	if avg := testing.AllocsPerRun(100, func() {
		p.RFFT(dst, x)
	}); avg != 0 {
		t.Errorf("RFFT steady state allocates %.1f times per op, want 0", avg)
	}
	rdst := make([]float64, 1024)
	p.IRFFT(rdst, dst)
	// IRFFT's repack scratch comes from the plan pool; steady state may
	// touch the pool's pointer box but must not rebuild buffers.
	if avg := testing.AllocsPerRun(100, func() {
		p.IRFFT(rdst, dst)
	}); avg > 1 {
		t.Errorf("IRFFT steady state allocates %.1f times per op, want <= 1", avg)
	}
}
