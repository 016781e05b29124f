package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// adam is a per-parameter-slice Adam optimizer state.
type adam struct {
	m, v []float64
	t    int
	lr   float64
}

func newAdam(n int, lr float64) *adam {
	return &adam{m: make([]float64, n), v: make([]float64, n), lr: lr}
}

const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

// step applies one Adam update to params given grads.
func (a *adam) step(params, grads []float64) {
	a.t++
	b1c := 1 - math.Pow(adamBeta1, float64(a.t))
	b2c := 1 - math.Pow(adamBeta2, float64(a.t))
	for i := range params {
		g := grads[i]
		a.m[i] = adamBeta1*a.m[i] + (1-adamBeta1)*g
		a.v[i] = adamBeta2*a.v[i] + (1-adamBeta2)*g*g
		params[i] -= a.lr * (a.m[i] / b1c) / (math.Sqrt(a.v[i]/b2c) + adamEps)
	}
}

// denseLayer is a fully connected layer (out = W·in + b).
type denseLayer struct {
	in, out int
	w, b    []float64 // w is out×in row-major
}

func newDense(in, out int, rng *rand.Rand) *denseLayer {
	l := &denseLayer{in: in, out: out, w: make([]float64, in*out), b: make([]float64, out)}
	scale := math.Sqrt(2 / float64(in)) // He init
	for i := range l.w {
		l.w[i] = rng.NormFloat64() * scale
	}
	return l
}

// forwardInto computes W·x + b into dst (grown if needed).
func (l *denseLayer) forwardInto(dst, x []float64) []float64 {
	if cap(dst) < l.out {
		dst = make([]float64, l.out)
	}
	out := dst[:l.out]
	for o := 0; o < l.out; o++ {
		acc := l.b[o]
		row := l.w[o*l.in : (o+1)*l.in]
		for i, v := range x {
			acc += row[i] * v
		}
		out[o] = acc
	}
	return out
}

// backward accumulates parameter grads and returns the input grad.
func (l *denseLayer) backward(x, gradOut, gw, gb []float64) []float64 {
	gradIn := make([]float64, l.in)
	for o := 0; o < l.out; o++ {
		g := gradOut[o]
		gb[o] += g
		row := l.w[o*l.in : (o+1)*l.in]
		grow := gw[o*l.in : (o+1)*l.in]
		for i := 0; i < l.in; i++ {
			grow[i] += g * x[i]
			gradIn[i] += g * row[i]
		}
	}
	return gradIn
}

// reluInto writes max(x, 0) into dst (grown if needed).
func reluInto(dst, x []float64) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	out := dst[:len(x)]
	for i, v := range x {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
	return out
}

func reluGrad(pre, grad []float64) []float64 {
	out := make([]float64, len(grad))
	for i := range grad {
		if pre[i] > 0 {
			out[i] = grad[i]
		}
	}
	return out
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// convLayer is a 1-D valid convolution over a (time × channels)
// sequence.
type convLayer struct {
	inC, outC, k int
	w            []float64 // outC×inC×k
	b            []float64
}

func newConv(inC, outC, k int, rng *rand.Rand) *convLayer {
	l := &convLayer{inC: inC, outC: outC, k: k, w: make([]float64, outC*inC*k), b: make([]float64, outC)}
	scale := math.Sqrt(2 / float64(inC*k))
	for i := range l.w {
		l.w[i] = rng.NormFloat64() * scale
	}
	return l
}

// forwardInto maps (T × inC) to ((T-k+1) × outC), writing the rows
// into m's reused storage.
func (l *convLayer) forwardInto(m *Matrix, x [][]float64) [][]float64 {
	tOut := len(x) - l.k + 1
	if tOut < 1 {
		tOut = 0
	}
	out := m.Resize(tOut, l.outC)
	for t, row := range out {
		for o := 0; o < l.outC; o++ {
			acc := l.b[o]
			for dk := 0; dk < l.k; dk++ {
				xr := x[t+dk]
				wr := l.w[(o*l.k+dk)*l.inC : (o*l.k+dk+1)*l.inC]
				for i := 0; i < l.inC; i++ {
					acc += wr[i] * xr[i]
				}
			}
			row[o] = acc
		}
	}
	return out
}

// backward accumulates grads and returns the input-sequence grad.
func (l *convLayer) backward(x, gradOut [][]float64, gw, gb []float64) [][]float64 {
	gradIn := make([][]float64, len(x))
	for t := range gradIn {
		gradIn[t] = make([]float64, l.inC)
	}
	for t := range gradOut {
		for o := 0; o < l.outC; o++ {
			g := gradOut[t][o]
			if g == 0 {
				continue
			}
			gb[o] += g
			for dk := 0; dk < l.k; dk++ {
				xr := x[t+dk]
				wr := l.w[(o*l.k+dk)*l.inC : (o*l.k+dk+1)*l.inC]
				gwr := gw[(o*l.k+dk)*l.inC : (o*l.k+dk+1)*l.inC]
				gir := gradIn[t+dk]
				for i := 0; i < l.inC; i++ {
					gwr[i] += g * xr[i]
					gir[i] += g * wr[i]
				}
			}
		}
	}
	return gradIn
}

// ConvNetConfig configures the sequence classifier.
type ConvNetConfig struct {
	InputDim     int   // features per frame
	ConvChannels []int // output channels per conv layer
	KernelSize   int
	PoolStride   int // temporal mean-pool stride between conv layers
	HiddenDim    int
	LearningRate float64
	Epochs       int
	BatchSize    int
	Seed         uint64
}

// DefaultConvNetConfig returns the liveness detector's architecture: a
// compact convolutional feature encoder over filterbank frames followed
// by a dense head — the structural stand-in for the paper's wav2vec2
// (see DESIGN.md on why a 95M-parameter pretrained transformer is
// substituted).
func DefaultConvNetConfig(inputDim int) ConvNetConfig {
	return ConvNetConfig{
		InputDim:     inputDim,
		ConvChannels: []int{16, 16},
		KernelSize:   5,
		PoolStride:   2,
		HiddenDim:    16,
		LearningRate: 2e-3,
		Epochs:       30,
		BatchSize:    16,
		Seed:         1,
	}
}

// ConvNet is a small 1-D convolutional binary classifier over
// variable-length frame sequences: conv+ReLU+pool blocks, global
// mean+max pooling, one hidden dense layer, sigmoid output.
type ConvNet struct {
	Cfg    ConvNetConfig
	convs  []*convLayer
	dense1 *denseLayer
	dense2 *denseLayer
	opts   []*adam
}

// NewConvNet returns an untrained ConvNet.
func NewConvNet(cfg ConvNetConfig) *ConvNet { return &ConvNet{Cfg: cfg} }

// init builds layers lazily (requires InputDim).
func (c *ConvNet) initLayers(rng *rand.Rand) {
	c.convs = nil
	inC := c.Cfg.InputDim
	for _, outC := range c.Cfg.ConvChannels {
		c.convs = append(c.convs, newConv(inC, outC, c.Cfg.KernelSize, rng))
		inC = outC
	}
	pooled := 2 * inC // global mean+max
	c.dense1 = newDense(pooled, c.Cfg.HiddenDim, rng)
	c.dense2 = newDense(c.Cfg.HiddenDim, 1, rng)
	c.opts = nil
	for _, l := range c.convs {
		c.opts = append(c.opts, newAdam(len(l.w), c.Cfg.LearningRate), newAdam(len(l.b), c.Cfg.LearningRate))
	}
	c.opts = append(c.opts,
		newAdam(len(c.dense1.w), c.Cfg.LearningRate), newAdam(len(c.dense1.b), c.Cfg.LearningRate),
		newAdam(len(c.dense2.w), c.Cfg.LearningRate), newAdam(len(c.dense2.b), c.Cfg.LearningRate))
}

// Fit trains on frame sequences (each sample: T × InputDim) with
// binary labels. Sequences may differ in length but must be long
// enough to survive the conv/pool stack (~KernelSize*2+PoolStride
// frames).
func (c *ConvNet) Fit(x [][][]float64, y []int) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("ml: convnet: invalid training set (n=%d, labels=%d)", len(x), len(y))
	}
	rng := randForInit(c.Cfg.Seed)
	c.initLayers(rng)
	batch := c.Cfg.BatchSize
	if batch <= 0 {
		batch = 16
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < c.Cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += batch {
			end := start + batch
			if end > len(idx) {
				end = len(idx)
			}
			if err := c.trainBatch(x, y, idx[start:end]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ContinueFit runs additional epochs on new data without re-initializing
// weights — the incremental-learning path of §IV-A1 and §IV-B9.
func (c *ConvNet) ContinueFit(x [][][]float64, y []int, epochs int) error {
	if c.dense2 == nil {
		return fmt.Errorf("ml: convnet: ContinueFit before Fit")
	}
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("ml: convnet: invalid training set (n=%d, labels=%d)", len(x), len(y))
	}
	rng := rand.New(rand.NewPCG(c.Cfg.Seed+1, 0xFACEFEED))
	batch := c.Cfg.BatchSize
	if batch <= 0 {
		batch = 16
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += batch {
			end := start + batch
			if end > len(idx) {
				end = len(idx)
			}
			if err := c.trainBatch(x, y, idx[start:end]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Matrix is a reusable T × C frame sequence — the ConvNet's input and
// activation layout: row headers over one flat backing array, both
// grown on demand.
type Matrix struct {
	rows [][]float64
	back []float64
}

// Resize returns m as a t × c matrix, reusing its storage. The rows
// are capped at c, so appending to one never reaches the next; the
// contents are unspecified.
func (m *Matrix) Resize(t, c int) [][]float64 {
	if cap(m.back) < t*c {
		m.back = make([]float64, t*c)
	}
	if cap(m.rows) < t {
		m.rows = make([][]float64, t)
	}
	m.rows = m.rows[:t]
	for i := range m.rows {
		m.rows[i] = m.back[i*c : (i+1)*c : (i+1)*c]
	}
	return m.rows
}

// ConvNetWorkspace holds one forward pass's activations. Training keeps
// them for the backward pass; inference (PredictProbaWith) reads only
// the output. Its storage is reused from pass to pass, so a warm
// workspace runs a forward pass without allocating. The zero value is
// ready to use; a workspace must not be used from two goroutines at
// once.
type ConvNetWorkspace struct {
	convIn  [][][]float64 // input to each conv layer
	convPre [][][]float64 // pre-ReLU conv outputs
	poolIn  [][][]float64 // post-ReLU (pool input) per layer
	pooled  []float64     // global pooled vector
	maxIdx  []int         // argmax time per channel for max-pool grad
	d1pre   []float64
	d1act   []float64
	d2pre   []float64
	lastSeq [][]float64 // final sequence feeding global pool

	// Storage per conv layer: conv output, ReLU output, mean-pool
	// output.
	preM, actM, poolM []Matrix
}

// ErrSequenceTooShort is wrapped by a convnet forward pass whose input
// sequence runs out of frames before a convolution's kernel fits.
var ErrSequenceTooShort = errors.New("ml: convnet: sequence too short")

// forward runs the full network over x into fw, retaining the
// intermediates. Training and inference share it.
func (c *ConvNet) forward(fw *ConvNetWorkspace, x [][]float64) error {
	n := len(c.convs)
	if len(fw.preM) < n {
		fw.preM = make([]Matrix, n)
		fw.actM = make([]Matrix, n)
		fw.poolM = make([]Matrix, n)
	}
	fw.convIn = fw.convIn[:0]
	fw.convPre = fw.convPre[:0]
	fw.poolIn = fw.poolIn[:0]
	seq := x
	for li, l := range c.convs {
		if len(seq) < l.k {
			return fmt.Errorf("%w (%d frames < kernel %d)", ErrSequenceTooShort, len(seq), l.k)
		}
		fw.convIn = append(fw.convIn, seq)
		pre := l.forwardInto(&fw.preM[li], seq)
		fw.convPre = append(fw.convPre, pre)
		act := fw.actM[li].Resize(len(pre), l.outC)
		for t := range pre {
			reluInto(act[t], pre[t])
		}
		fw.poolIn = append(fw.poolIn, act)
		seq = meanPool(&fw.poolM[li], act, c.Cfg.PoolStride)
	}
	fw.lastSeq = seq
	if len(seq) == 0 {
		return fmt.Errorf("ml: convnet: sequence pooled to zero length")
	}
	ch := len(seq[0])
	if cap(fw.pooled) < 2*ch {
		fw.pooled = make([]float64, 2*ch)
	}
	if cap(fw.maxIdx) < ch {
		fw.maxIdx = make([]int, ch)
	}
	fw.pooled = fw.pooled[:2*ch]
	fw.maxIdx = fw.maxIdx[:ch]
	for o := 0; o < ch; o++ {
		sum := 0.0
		maxV := math.Inf(-1)
		maxT := 0
		for t := range seq {
			v := seq[t][o]
			sum += v
			if v > maxV {
				maxV = v
				maxT = t
			}
		}
		fw.pooled[o] = sum / float64(len(seq))
		fw.pooled[ch+o] = maxV
		fw.maxIdx[o] = maxT
	}
	fw.d1pre = c.dense1.forwardInto(fw.d1pre, fw.pooled)
	fw.d1act = reluInto(fw.d1act, fw.d1pre)
	fw.d2pre = c.dense2.forwardInto(fw.d2pre, fw.d1act)
	return nil
}

func (c *ConvNet) trainBatch(x [][][]float64, y []int, batch []int) error {
	gws := make([][]float64, 0, len(c.opts))
	for _, l := range c.convs {
		gws = append(gws, make([]float64, len(l.w)), make([]float64, len(l.b)))
	}
	gws = append(gws,
		make([]float64, len(c.dense1.w)), make([]float64, len(c.dense1.b)),
		make([]float64, len(c.dense2.w)), make([]float64, len(c.dense2.b)))

	// One set of activations serves the whole batch: each sample's
	// backward pass finishes before the next forward pass reuses it.
	fw := &ConvNetWorkspace{}
	for _, i := range batch {
		if err := c.forward(fw, x[i]); err != nil {
			return err
		}
		p := sigmoid(fw.d2pre[0])
		target := 0.0
		if y[i] == 1 {
			target = 1
		}
		grad := []float64{(p - target) / float64(len(batch))}

		nConv := len(c.convs)
		g1 := c.dense2.backward(fw.d1act, grad, gws[2*nConv+2], gws[2*nConv+3])
		g1 = reluGrad(fw.d1pre, g1)
		gPooled := c.dense1.backward(fw.pooled, g1, gws[2*nConv], gws[2*nConv+1])

		// Global pool backward.
		seq := fw.lastSeq
		ch := len(seq[0])
		gSeq := make([][]float64, len(seq))
		for t := range gSeq {
			gSeq[t] = make([]float64, ch)
		}
		for o := 0; o < ch; o++ {
			gm := gPooled[o] / float64(len(seq))
			for t := range seq {
				gSeq[t][o] += gm
			}
			gSeq[fw.maxIdx[o]][o] += gPooled[ch+o]
		}

		// Conv stack backward.
		for li := nConv - 1; li >= 0; li-- {
			gAct := meanPoolGrad(gSeq, len(fw.poolIn[li]), c.Cfg.PoolStride)
			gPre := make([][]float64, len(gAct))
			for t := range gAct {
				gPre[t] = reluGrad(fw.convPre[li][t], gAct[t])
			}
			gSeq = c.convs[li].backward(fw.convIn[li], gPre, gws[2*li], gws[2*li+1])
		}
	}

	oi := 0
	for _, l := range c.convs {
		c.opts[oi].step(l.w, gws[oi])
		c.opts[oi+1].step(l.b, gws[oi+1])
		oi += 2
	}
	c.opts[oi].step(c.dense1.w, gws[oi])
	c.opts[oi+1].step(c.dense1.b, gws[oi+1])
	c.opts[oi+2].step(c.dense2.w, gws[oi+2])
	c.opts[oi+3].step(c.dense2.b, gws[oi+3])
	return nil
}

// PredictProbaWith returns the class-1 probability for a frame
// sequence, running on ws's reused activations.
func (c *ConvNet) PredictProbaWith(ws *ConvNetWorkspace, x [][]float64) (float64, error) {
	if c.dense2 == nil {
		return 0, fmt.Errorf("ml: convnet: predict before fit")
	}
	if err := c.forward(ws, x); err != nil {
		return 0, err
	}
	return sigmoid(ws.d2pre[0]), nil
}

// meanPool averages non-overlapping groups of stride frames into m's
// reused storage (stride <= 1 is a no-op and returns x itself).
func meanPool(m *Matrix, x [][]float64, stride int) [][]float64 {
	if stride <= 1 || len(x) == 0 {
		return x
	}
	n := len(x) / stride
	if n == 0 {
		n = 1
	}
	ch := len(x[0])
	out := m.Resize(n, ch)
	for t, row := range out {
		clear(row)
		count := 0
		for s := 0; s < stride; s++ {
			ti := t*stride + s
			if ti >= len(x) {
				break
			}
			for o := 0; o < ch; o++ {
				row[o] += x[ti][o]
			}
			count++
		}
		for o := 0; o < ch; o++ {
			row[o] /= float64(count)
		}
	}
	return out
}

// meanPoolGrad up-samples pooled grads back to inLen frames.
func meanPoolGrad(gradOut [][]float64, inLen, stride int) [][]float64 {
	if stride <= 1 {
		return gradOut
	}
	if len(gradOut) == 0 {
		return nil
	}
	ch := len(gradOut[0])
	out := make([][]float64, inLen)
	for t := range out {
		out[t] = make([]float64, ch)
	}
	for t := range gradOut {
		// Count how many frames fed this pooled step.
		count := 0
		for s := 0; s < stride; s++ {
			if t*stride+s < inLen {
				count++
			}
		}
		if count == 0 {
			continue
		}
		for s := 0; s < stride; s++ {
			ti := t*stride + s
			if ti >= inLen {
				break
			}
			for o := 0; o < ch; o++ {
				out[ti][o] += gradOut[t][o] / float64(count)
			}
		}
	}
	return out
}

// randForInit builds the deterministic weight-init RNG for a seed,
// matching Fit's initialization path (used when deserializing).
func randForInit(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0xFACEFEED))
}
