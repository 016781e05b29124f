package srp

import (
	"fmt"
	"math/cmplx"

	"headtalk/internal/dsp"
)

// Workspace owns every scratch buffer the pair-correlation path needs:
// per-channel spectra, cross-spectrum, the inverse transform's complex
// scratch, lag windows and the PairGCC headers themselves. A workspace
// reused across calls performs no steady-state allocation, also across
// garbage collections (nothing comes from a sync.Pool) — the shape the
// serving engine's per-worker arenas rely on.
//
// Results returned by workspace methods alias workspace-owned memory
// and are valid only until the next call on the same workspace. A
// Workspace is not safe for concurrent use; give each worker its own.
type Workspace struct {
	flat  []complex128
	specs [][]complex128
	rms   []float64
	cross []complex128
	inv   []complex128
	rback []float64
	out   []PairGCC
	srp   []float64
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growC(s []complex128, n int) []complex128 {
	if cap(s) < n {
		return make([]complex128, n)
	}
	return s[:n]
}

// AllPairs computes GCCs for every unordered channel pair of a
// multi-channel capture (C(n,2) pairs, e.g. 6 for a 4-mic array).
//
// Each channel is transformed — and, for PHAT, phase-normalized — once
// and the result shared across every pair it joins, so a C-channel
// capture costs C forward FFTs plus one inverse per pair instead of the
// 2·C(C,2) forward transforms of the per-pair path: phase one
// transforms (and for PHAT whitens) every channel over one plan; phase
// two runs the pair cross-spectra and inverses. Fewer than two channels
// is an empty pair set, not an error.
func (ws *Workspace) AllPairs(channels [][]float64, opt PairOptions) ([]PairGCC, error) {
	if opt.MaxLag < 0 {
		return nil, fmt.Errorf("srp: negative maxLag %d", opt.MaxLag)
	}
	if len(channels) < 2 {
		return nil, nil
	}
	n := len(channels[0])
	if n == 0 {
		return nil, fmt.Errorf("srp: pair (0,1): srp: empty channels")
	}
	for c, ch := range channels[1:] {
		if len(ch) != n {
			return nil, fmt.Errorf("srp: pair (0,%d): srp: channel length mismatch %d != %d",
				c+1, n, len(ch))
		}
	}

	nch := len(channels)
	npairs := nch * (nch - 1) / 2
	want := 2*opt.MaxLag + 1
	m := dsp.NextPow2(2 * n)
	if err := lagFits(opt.MaxLag, m); err != nil {
		return nil, err
	}
	p := dsp.Plan(m)
	bins := m/2 + 1
	ws.flat = growC(ws.flat, nch*bins)
	if cap(ws.specs) < nch {
		ws.specs = make([][]complex128, nch)
	}
	ws.specs = ws.specs[:nch]
	ws.rms = growF(ws.rms, nch)
	ws.cross = growC(ws.cross, bins)
	ws.inv = growC(ws.inv, m/2)
	ws.rback = growF(ws.rback, npairs*want)
	if cap(ws.out) < npairs {
		ws.out = make([]PairGCC, npairs)
	}
	ws.out = ws.out[:npairs]

	// The bins the cross-spectrum reads. A band wholly above Nyquist
	// keeps none, and every pair correlates to zero.
	loBin, hiBin := bandBins(m, opt.SampleRate, opt.BandLo, opt.BandHi)
	if !opt.PHAT {
		loBin, hiBin = 0, m/2
	}
	loBin = min(loBin, hiBin+1)

	// Phase one: every forward transform, back to back, each reading
	// its channel as zero-padded to m. For PHAT each spectrum is
	// phase-normalized here, inside the band only, so the per-pair
	// whitened cross-spectrum is a plain multiply: with ua = fa/|fa|,
	// ua·conj(ub) = fa·conj(fb)/|fa·conj(fb)|.
	for c, ch := range channels {
		spec := p.RFFT(ws.flat[c*bins:c*bins:(c+1)*bins], ch)
		if opt.PHAT {
			whitenSpectrum(spec[loBin : hiBin+1])
		} else {
			ws.rms[c] = dsp.RMS(ch)
		}
		ws.specs[c] = spec
	}

	// Phase two: the pair inverses over the still-hot plan. Outside the
	// band the cross-spectrum stays zero for every pair; inside it each
	// pair writes every bin.
	clear(ws.cross[:loBin])
	clear(ws.cross[hiBin+1:])
	k := 0
	for a := 0; a < nch; a++ {
		for b := a + 1; b < nch; b++ {
			var scale float64
			if opt.PHAT {
				var kept int
				wa, wb := ws.specs[a], ws.specs[b]
				for i := loBin; i <= hiBin; i++ {
					c := wa[i] * cmplx.Conj(wb[i])
					if c != 0 {
						kept++
					} else {
						c = 0
					}
					ws.cross[i] = c
				}
				scale = 1.0
				if kept > 0 {
					scale = float64(m) / float64(2*kept)
				}
			} else {
				fa, fb := ws.specs[a], ws.specs[b]
				for i := range ws.cross {
					ws.cross[i] = fa[i] * cmplx.Conj(fb[i])
				}
				norm := ws.rms[a] * ws.rms[b] * float64(n)
				if norm == 0 {
					norm = 1
				}
				scale = 1 / norm
			}
			r := p.IRFFTLags(ws.rback[k*want:k*want:(k+1)*want], ws.cross, opt.MaxLag, ws.inv)
			for i := range r {
				r[i] *= scale
			}
			ws.out[k] = PairGCC{
				I:    a,
				J:    b,
				R:    r,
				TDoA: dsp.ArgMax(r) - opt.MaxLag,
			}
			k++
		}
	}
	return ws.out[:npairs:npairs], nil
}

// SRP is srp.SRP accumulating into workspace scratch. The returned
// curve is valid until the next SRP call on the same workspace (other
// workspace methods do not touch it).
func (ws *Workspace) SRP(pairs []PairGCC) []float64 {
	if len(pairs) == 0 {
		return nil
	}
	ws.srp = growF(ws.srp, len(pairs[0].R))
	out := ws.srp
	for i := range out {
		out[i] = 0
	}
	for _, p := range pairs {
		for i, v := range p.R {
			out[i] += v
		}
	}
	return out
}
