package srp

import (
	"fmt"
	"math/cmplx"

	"headtalk/internal/dsp"
)

// Workspace owns every scratch buffer the pair-correlation path needs:
// padded FFT input, per-channel spectra, cross-spectrum, circular
// correlation, lag windows and the PairGCC headers themselves. A
// workspace reused across calls performs no steady-state allocation —
// the shape the serving engine's per-worker arenas rely on.
//
// Results returned by workspace methods alias workspace-owned memory
// and are valid only until the next call on the same workspace. A
// Workspace is not safe for concurrent use; give each worker its own.
type Workspace struct {
	padded []float64
	flat   []complex128
	specs  [][]complex128
	rms    []float64
	cross  []complex128
	rbuf   []float64
	rback  []float64
	pairs  []PairGCC
	sets   [][]PairGCC
	srp    []float64
	allIdx []int
	// paddedLive counts the leading elements of padded that may hold
	// stale samples from the previous transform; everything past it is
	// known zero, so re-zeroing before each copy touches only the dirty
	// prefix instead of the whole FFT frame.
	paddedLive int

	oneItem   [1][][]float64
	oneSubset [1][]int
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

// AllPairs is srp.AllPairs running entirely on workspace scratch.
func (ws *Workspace) AllPairs(channels [][]float64, opt PairOptions) ([]PairGCC, error) {
	ws.oneItem[0] = channels
	ws.oneSubset[0] = nil
	sets, err := ws.pairsBatch(ws.oneItem[:], ws.oneSubset[:], opt)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// SelectedPairs is srp.SelectedPairs running entirely on workspace
// scratch. The duplicate check is a quadratic scan instead of a map —
// subsets are microphone counts, so the scan is both faster and
// allocation-free.
func (ws *Workspace) SelectedPairs(channels [][]float64, subset []int, opt PairOptions) ([]PairGCC, error) {
	if err := checkSubset(channels, subset); err != nil {
		return nil, err
	}
	ws.oneItem[0] = channels
	ws.oneSubset[0] = subset
	sets, err := ws.pairsBatch(ws.oneItem[:], ws.oneSubset[:], opt)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// checkSubset validates a SelectedPairs subset without allocating.
func checkSubset(channels [][]float64, subset []int) error {
	if len(subset) < 2 {
		return fmt.Errorf("srp: need at least 2 surviving channels, have %d", len(subset))
	}
	for i, c := range subset {
		if c < 0 || c >= len(channels) {
			return fmt.Errorf("srp: subset channel %d out of range [0,%d)", c, len(channels))
		}
		for _, prev := range subset[:i] {
			if prev == c {
				return fmt.Errorf("srp: duplicate subset channel %d", c)
			}
		}
	}
	return nil
}

// AllPairsBatch computes the pair sets of several captures in one
// batched sweep. All forward transforms — every channel of every
// same-FFT-size capture — run back to back over one shared plan before
// any pair inverse does, so the plan's twiddle and bit-reversal tables
// stay cache-hot across the whole batch instead of being evicted by
// per-request work in between. Captures whose FFT sizes differ are
// grouped into maximal same-size runs.
//
// Each returned pair set matches what AllPairs would return for the
// corresponding capture. The sets alias workspace memory: valid until
// the next workspace call.
func (ws *Workspace) AllPairsBatch(items [][][]float64, opt PairOptions) ([][]PairGCC, error) {
	return ws.pairsBatch(items, nil, opt)
}

// pairsBatch is the shared batch engine. subsets may be nil (all
// channels for every item) or per-item channel subsets (nil entries
// again meaning all channels).
func (ws *Workspace) pairsBatch(items [][][]float64, subsets [][]int, opt PairOptions) ([][]PairGCC, error) {
	if opt.MaxLag < 0 {
		return nil, fmt.Errorf("srp: negative maxLag %d", opt.MaxLag)
	}
	if cap(ws.sets) < len(items) {
		ws.sets = make([][]PairGCC, len(items))
	}
	ws.sets = ws.sets[:len(items)]

	// Validate every item up front and total the scratch demand, so one
	// bad capture fails the whole batch before any DSP runs.
	maxChans := 0
	totalPairs := 0
	for k, channels := range items {
		subset := subsetFor(subsets, k)
		nch := len(channels)
		if subset != nil {
			nch = len(subset)
		}
		if nch > maxChans {
			maxChans = nch
		}
		if nch >= 2 {
			totalPairs += nch * (nch - 1) / 2
		}
		if err := validateItem(channels, subset); err != nil {
			return nil, err
		}
	}
	if cap(ws.allIdx) < maxChans {
		ws.allIdx = make([]int, maxChans)
		for i := range ws.allIdx {
			ws.allIdx[i] = i
		}
	}
	want := 2*opt.MaxLag + 1
	ws.rback = growF(ws.rback, totalPairs*want)
	if cap(ws.pairs) < totalPairs {
		ws.pairs = make([]PairGCC, totalPairs)
	}
	ws.pairs = ws.pairs[:totalPairs]
	pairAt, rAt := 0, 0

	// Maximal runs of items sharing one FFT size are swept together.
	for start := 0; start < len(items); {
		n := itemLen(items[start], subsetFor(subsets, start))
		m := dsp.NextPow2(2 * n)
		end := start + 1
		for end < len(items) && dsp.NextPow2(2*itemLen(items[end], subsetFor(subsets, end))) == m {
			end++
		}
		if err := ws.sweepGroup(items[start:end], subsets, start, m, opt, &pairAt, &rAt, want); err != nil {
			return nil, err
		}
		start = end
	}
	return ws.sets, nil
}

// subsetFor returns the k-th subset, or nil for "all channels".
func subsetFor(subsets [][]int, k int) []int {
	if subsets == nil || k >= len(subsets) {
		return nil
	}
	return subsets[k]
}

// itemLen returns the per-channel sample count of one item (0 when the
// item has no usable channels).
func itemLen(channels [][]float64, subset []int) int {
	if subset != nil {
		if len(subset) == 0 {
			return 0
		}
		return len(channels[subset[0]])
	}
	if len(channels) == 0 {
		return 0
	}
	return len(channels[0])
}

// validateItem checks one capture's channel lengths; fewer than two
// channels is an empty pair set, not an error.
func validateItem(channels [][]float64, subset []int) error {
	if subset == nil {
		if len(channels) < 2 {
			return nil // empty pair set
		}
		n := len(channels[0])
		if n == 0 {
			return fmt.Errorf("srp: pair (0,1): srp: empty channels")
		}
		for c, ch := range channels[1:] {
			if len(ch) != n {
				return fmt.Errorf("srp: pair (%d,%d): srp: channel length mismatch %d != %d", 0, c+1, n, len(ch))
			}
		}
		return nil
	}
	if len(subset) < 2 {
		return nil
	}
	n := len(channels[subset[0]])
	if n == 0 {
		return fmt.Errorf("srp: pair (%d,%d): srp: empty channels", subset[0], subset[1])
	}
	for _, c := range subset[1:] {
		if len(channels[c]) != n {
			return fmt.Errorf("srp: pair (%d,%d): srp: channel length mismatch %d != %d",
				subset[0], c, n, len(channels[c]))
		}
	}
	return nil
}

// sweepGroup runs the two-phase batch over items[0:len], all sharing
// FFT size m: phase one transforms (and for PHAT whitens) every channel
// of every item over the shared plan; phase two runs each item's pair
// cross-spectra and inverses.
func (ws *Workspace) sweepGroup(items [][][]float64, subsets [][]int, base, m int, opt PairOptions, pairAt, rAt *int, want int) error {
	p := dsp.Plan(m)
	bins := m/2 + 1

	// Per-item spectrum offsets into one flat backing.
	totalSpecs := 0
	for k, channels := range items {
		subset := subsetFor(subsets, base+k)
		if subset != nil {
			totalSpecs += len(subset)
		} else {
			totalSpecs += len(channels)
		}
	}
	ws.flat = growC(ws.flat, totalSpecs*bins)
	if cap(ws.specs) < totalSpecs {
		ws.specs = make([][]complex128, totalSpecs)
	}
	ws.specs = ws.specs[:totalSpecs]
	ws.rms = growF(ws.rms, totalSpecs)
	if cap(ws.padded) < m {
		ws.padded = make([]float64, m) // freshly zeroed
		ws.paddedLive = 0
	} else {
		ws.padded = ws.padded[:m]
	}
	ws.cross = growC(ws.cross, bins)
	ws.rbuf = growF(ws.rbuf, m)

	// Phase one: every forward transform in the group, back to back.
	// For PHAT each spectrum is phase-normalized here, so the per-pair
	// whitened cross-spectrum is a plain multiply: with ua = fa/|fa|,
	// ua·conj(ub) = fa·conj(fb)/|fa·conj(fb)|.
	si := 0
	for k, channels := range items {
		subset := subsetFor(subsets, base+k)
		if subset == nil {
			subset = ws.allIdx[:len(channels)]
		}
		if len(subset) < 2 {
			continue
		}
		for _, c := range subset {
			n := copy(ws.padded, channels[c])
			live := ws.paddedLive
			if live > m {
				live = m
			}
			for i := n; i < live; i++ {
				ws.padded[i] = 0
			}
			if ws.paddedLive <= m {
				ws.paddedLive = n
			}
			spec := p.RFFT(ws.flat[si*bins:si*bins:(si+1)*bins], ws.padded)
			if opt.PHAT {
				whitenSpectrum(spec)
			} else {
				ws.rms[si] = dsp.RMS(channels[c])
			}
			ws.specs[si] = spec
			si++
		}
	}

	// Phase two: per-item pair inverses over the still-hot plan.
	si = 0
	for k, channels := range items {
		subset := subsetFor(subsets, base+k)
		if subset == nil {
			subset = ws.allIdx[:len(channels)]
		}
		if len(subset) < 2 {
			ws.sets[base+k] = nil
			continue
		}
		n := len(channels[subset[0]])
		loBin, hiBin := bandBins(m, opt.SampleRate, opt.BandLo, opt.BandHi)
		if !opt.PHAT {
			loBin, hiBin = 0, m/2
		}
		setStart := *pairAt
		for a := 0; a < len(subset); a++ {
			for b := a + 1; b < len(subset); b++ {
				for i := range ws.cross {
					ws.cross[i] = 0
				}
				var scale float64
				if opt.PHAT {
					var kept int
					wa, wb := ws.specs[si+a], ws.specs[si+b]
					for i := loBin; i <= hiBin; i++ {
						c := wa[i] * cmplx.Conj(wb[i])
						if c != 0 {
							ws.cross[i] = c
							kept++
						}
					}
					scale = 1.0
					if kept > 0 {
						scale = float64(m) / float64(2*kept)
					}
				} else {
					fa, fb := ws.specs[si+a], ws.specs[si+b]
					for i := range ws.cross {
						ws.cross[i] = fa[i] * cmplx.Conj(fb[i])
					}
					norm := ws.rms[si+a] * ws.rms[si+b] * float64(n)
					if norm == 0 {
						norm = 1
					}
					scale = 1 / norm
				}
				p.IRFFT(ws.rbuf, ws.cross)
				r := lagWindow(ws.rback[*rAt:*rAt:*rAt+want], ws.rbuf, opt.MaxLag, scale)
				*rAt += want
				ws.pairs[*pairAt] = PairGCC{
					I:    subset[a],
					J:    subset[b],
					R:    r,
					TDoA: dsp.ArgMax(r) - opt.MaxLag,
				}
				*pairAt++
			}
		}
		ws.sets[base+k] = ws.pairs[setStart:*pairAt:*pairAt]
		si += len(subset)
	}
	return nil
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
