package registry

import (
	"fmt"
	"math"
	"sync"

	"headtalk/internal/orientation"
)

// AdaptConfig tunes online adaptation: the paper's §IV-A1 adapt phase,
// run continuously. Accepted decisions (both gates passed) accumulate;
// every BatchSize of them, the active orientation model is cloned from
// its stored bytes, the batch is folded in with
// orientation.IncrementalUpdate (self-training: only high-confidence
// pseudo-labels are absorbed), and the result is stored as a new
// CANDIDATE version. It never promotes itself: it goes live only
// through Promote.
type AdaptConfig struct {
	// Disable turns online adaptation off entirely.
	Disable bool
	// BatchSize is how many accepted decisions trigger a candidate
	// build (default 32).
	BatchSize int
	// MinConfidence is passed to IncrementalUpdate: pseudo-labels
	// below it are not absorbed (default 0.8).
	MinConfidence float64
}

func (c AdaptConfig) withDefaults() AdaptConfig {
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.MinConfidence == 0 {
		c.MinConfidence = 0.8
	}
	return c
}

// adapter accumulates accepted-decision features and builds candidate
// versions in the background.
type adapter struct {
	reg *Registry
	cfg AdaptConfig

	mu      sync.Mutex
	pending [][]float64
	// free holds feature buffers of finished builds, which observe
	// reuses, so a warm adapter copies without allocating.
	free [][]float64
	busy bool

	wg sync.WaitGroup
}

func newAdapter(r *Registry, cfg AdaptConfig) *adapter {
	return &adapter{reg: r, cfg: cfg}
}

// observe is the ModelSet.OnAccepted hook: called synchronously on the
// decision path, so it only copies the feature vector and checks a
// counter. feats is only valid during the call (it aliases a pooled
// preprocessor arena) — the copy here is load-bearing.
func (a *adapter) observe(feats []float64, score float64) {
	a.mu.Lock()
	var cp []float64
	if n := len(a.free); n > 0 {
		cp = a.free[n-1]
		a.free = a.free[:n-1]
	}
	a.pending = append(a.pending, append(cp[:0], feats...))
	n := len(a.pending)
	launch := n >= a.cfg.BatchSize && !a.busy
	if launch {
		a.busy = true
	}
	a.mu.Unlock()

	if a.reg.ins != nil {
		a.reg.ins.adaptAccum.Inc()
	}
	if launch {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.build()
			a.mu.Lock()
			a.busy = false
			a.mu.Unlock()
		}()
	}
}

// build drains the pending batch and folds it into a clone of the
// active orientation model. The active version's stored bytes are the
// clone source, so the serving instance is never touched — the update
// lands as a brand-new candidate version.
func (a *adapter) build() (uint64, error) {
	a.mu.Lock()
	batch := a.pending
	a.pending = nil
	a.mu.Unlock()
	if len(batch) == 0 {
		return 0, fmt.Errorf("registry: no accepted decisions pending")
	}
	defer a.recycle(batch)

	payload, activeNum := a.reg.ActiveBytes(KindOrientation)
	if payload == nil {
		return 0, fmt.Errorf("registry: no active orientation model to adapt")
	}
	model, err := DecodeModel(KindOrientation, payload)
	if err != nil {
		return 0, fmt.Errorf("registry: cloning orientation v%d: %w", activeNum, err)
	}
	clone := model.(*orientation.Model)
	absorbed, err := clone.IncrementalUpdate(batch, a.cfg.MinConfidence)
	if err != nil {
		return 0, fmt.Errorf("registry: incremental update: %w", err)
	}
	if absorbed == 0 {
		return 0, fmt.Errorf("registry: no pending sample met the %.2f confidence floor", a.cfg.MinConfidence)
	}
	num, err := a.reg.AddModel(KindOrientation, clone)
	if err != nil {
		return 0, err
	}
	if a.reg.ins != nil {
		a.reg.ins.adaptBuilt.Inc()
	}
	return num, nil
}

// recycle hands a finished batch's buffers back to observe. The
// candidate built from them has been serialized into the registry and
// dropped by then, so nothing else holds them; the batch slice itself
// becomes the next pending list when none has started.
func (a *adapter) recycle(batch [][]float64) {
	a.mu.Lock()
	a.free = append(a.free, batch...)
	if a.pending == nil {
		a.pending = batch[:0]
	}
	a.mu.Unlock()
}

// DriftConfig tunes the score-distribution drift detector. After every
// swap the detector learns a baseline (mean/std of the first
// MinBaseline active-orientation scores); it then keeps a rolling
// window and meters how far the window mean has wandered from the
// baseline, in baseline standard deviations. A shift beyond Threshold
// trips a counter — the operational signal that the room, the speaker
// population, or the hardware has moved out from under the model and a
// re-enrollment or adaptation candidate deserves a look.
type DriftConfig struct {
	// MinBaseline is how many scores establish the post-swap baseline
	// (default 64).
	MinBaseline int
	// Window is the rolling window length compared against the
	// baseline (default 128).
	Window int
	// Threshold is the trip level in baseline standard deviations
	// (default 3).
	Threshold float64
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.MinBaseline == 0 {
		c.MinBaseline = 64
	}
	if c.Window == 0 {
		c.Window = 128
	}
	if c.Threshold == 0 {
		c.Threshold = 3
	}
	return c
}

// DriftState is the detector's observable state.
type DriftState struct {
	// BaselineReady reports whether the post-swap baseline is
	// established.
	BaselineReady bool    `json:"baseline_ready"`
	BaselineMean  float64 `json:"baseline_mean"`
	BaselineStd   float64 `json:"baseline_std"`
	// RollingMean is the current window mean (once the window has any
	// samples).
	RollingMean float64 `json:"rolling_mean"`
	// Shift is |rolling − baseline| in baseline standard deviations.
	Shift float64 `json:"shift_sigma"`
	// Tripped reports Shift ≥ Threshold right now; Trips counts
	// level-crossings since the last swap/reset.
	Tripped bool `json:"tripped"`
	Trips   int  `json:"trips"`
}

// driftDetector meters distribution shift of active orientation
// scores.
type driftDetector struct {
	cfg DriftConfig
	ins *instruments

	mu sync.Mutex
	// Baseline accumulation.
	baseN    int
	baseSum  float64
	baseSum2 float64
	baseMean float64
	baseStd  float64
	ready    bool
	// Rolling window (ring buffer).
	win     []float64
	winLen  int
	winPos  int
	winSum  float64
	tripped bool
	trips   int
}

func newDriftDetector(cfg DriftConfig, ins *instruments) *driftDetector {
	return &driftDetector{cfg: cfg, ins: ins, win: make([]float64, cfg.Window)}
}

// reset discards baseline and window — called on every promote or
// rollback, because a new model has a new score distribution.
func (d *driftDetector) reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.baseN, d.baseSum, d.baseSum2 = 0, 0, 0
	d.baseMean, d.baseStd = 0, 0
	d.ready = false
	d.winLen, d.winPos, d.winSum = 0, 0, 0
	d.tripped = false
	d.trips = 0
	if d.ins != nil {
		d.ins.driftShift.Set(0)
	}
}

// observe is the ModelSet.OnScore hook (decision path: one mutex, a
// few float ops).
func (d *driftDetector) observe(score float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.ready {
		d.baseN++
		d.baseSum += score
		d.baseSum2 += score * score
		if d.baseN >= d.cfg.MinBaseline {
			n := float64(d.baseN)
			d.baseMean = d.baseSum / n
			v := d.baseSum2/n - d.baseMean*d.baseMean
			if v < 0 {
				v = 0
			}
			d.baseStd = math.Sqrt(v)
			// Floor so a freakishly tight baseline cannot make every
			// later fluctuation look like drift.
			if d.baseStd < 1e-3 {
				d.baseStd = 1e-3
			}
			d.ready = true
		}
		return
	}
	// Rolling window update.
	if d.winLen < len(d.win) {
		d.win[d.winPos] = score
		d.winSum += score
		d.winLen++
	} else {
		d.winSum += score - d.win[d.winPos]
		d.win[d.winPos] = score
	}
	d.winPos = (d.winPos + 1) % len(d.win)

	mean := d.winSum / float64(d.winLen)
	shift := math.Abs(mean-d.baseMean) / d.baseStd
	if d.ins != nil {
		// Gauges are integral; expose milli-sigma.
		d.ins.driftShift.Set(int64(shift * 1000))
	}
	nowTripped := shift >= d.cfg.Threshold
	if nowTripped && !d.tripped {
		d.trips++
		if d.ins != nil {
			d.ins.driftTrips.Inc()
		}
	}
	d.tripped = nowTripped
}

func (d *driftDetector) state() DriftState {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DriftState{
		BaselineReady: d.ready,
		BaselineMean:  d.baseMean,
		BaselineStd:   d.baseStd,
		Tripped:       d.tripped,
		Trips:         d.trips,
	}
	if d.winLen > 0 {
		st.RollingMean = d.winSum / float64(d.winLen)
		st.Shift = math.Abs(st.RollingMean-d.baseMean) / d.baseStd
	}
	return st
}
