package ml

import (
	"math"
	"math/rand/v2"
	"testing"
)

// sequenceData builds labeled frame sequences: class 1 has a rising
// temporal ramp in one channel, class 0 a falling one. Lengths vary.
func sequenceData(n int, seed uint64) ([][][]float64, []int) {
	rng := rand.New(rand.NewPCG(seed, 1))
	var x [][][]float64
	var y []int
	for i := 0; i < n; i++ {
		cls := i % 2
		frames := 24 + rng.IntN(16)
		seq := make([][]float64, frames)
		for t := 0; t < frames; t++ {
			f := make([]float64, 6)
			ramp := float64(t) / float64(frames)
			if cls == 0 {
				ramp = 1 - ramp
			}
			f[0] = ramp + 0.1*rng.NormFloat64()
			for d := 1; d < 6; d++ {
				f[d] = 0.1 * rng.NormFloat64()
			}
			seq[t] = f
		}
		x = append(x, seq)
		y = append(y, cls)
	}
	return x, y
}

func TestConvNetLearnsTemporalPattern(t *testing.T) {
	x, y := sequenceData(60, 2)
	cfg := ConvNetConfig{
		InputDim:     6,
		ConvChannels: []int{8},
		KernelSize:   5,
		PoolStride:   2,
		HiddenDim:    8,
		LearningRate: 5e-3,
		Epochs:       40,
		BatchSize:    8,
		Seed:         1,
	}
	net := NewConvNet(cfg)
	if err := net.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	tx, ty := sequenceData(40, 3)
	correct := 0
	for i := range tx {
		p, err := net.PredictProbaWith(&ConvNetWorkspace{}, tx[i])
		if err != nil {
			t.Fatal(err)
		}
		pred := 0
		if p >= 0.5 {
			pred = 1
		}
		if pred == ty[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(tx)); acc < 0.85 {
		t.Errorf("ConvNet accuracy %g on temporal ramps", acc)
	}
}

func TestConvNetContinueFitImproves(t *testing.T) {
	x, y := sequenceData(40, 4)
	cfg := DefaultConvNetConfig(6)
	cfg.ConvChannels = []int{8}
	cfg.Epochs = 3 // deliberately undertrained
	net := NewConvNet(cfg)
	if err := net.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	evalAcc := func() float64 {
		tx, ty := sequenceData(40, 5)
		correct := 0
		for i := range tx {
			p, err := net.PredictProbaWith(&ConvNetWorkspace{}, tx[i])
			if err != nil {
				t.Fatal(err)
			}
			if (p >= 0.5) == (ty[i] == 1) {
				correct++
			}
		}
		return float64(correct) / float64(len(tx))
	}
	before := evalAcc()
	if err := net.ContinueFit(x, y, 40); err != nil {
		t.Fatal(err)
	}
	after := evalAcc()
	if after < before-0.05 {
		t.Errorf("ContinueFit made things worse: %g -> %g", before, after)
	}
	if after < 0.8 {
		t.Errorf("accuracy after ContinueFit %g", after)
	}
}

func TestConvNetErrors(t *testing.T) {
	net := NewConvNet(DefaultConvNetConfig(4))
	if err := net.Fit(nil, nil); err == nil {
		t.Error("expected error on empty training set")
	}
	if err := net.ContinueFit(nil, nil, 1); err == nil {
		t.Error("expected error for ContinueFit before Fit")
	}
	if _, err := net.PredictProbaWith(&ConvNetWorkspace{}, [][]float64{{1, 2, 3, 4}}); err == nil {
		t.Error("expected error for predict before fit")
	}
	// Sequence shorter than the kernel.
	x, y := sequenceData(8, 6)
	if err := net.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	short := [][]float64{{0, 0, 0, 0, 0, 0}}
	if _, err := net.PredictProbaWith(&ConvNetWorkspace{}, short); err == nil {
		t.Error("expected error for too-short sequence")
	}
}

func TestMeanPool(t *testing.T) {
	x := [][]float64{{1}, {3}, {5}, {7}, {9}}
	out := meanPool(&Matrix{}, x, 2)
	if len(out) != 2 {
		t.Fatalf("pooled length %d", len(out))
	}
	if out[0][0] != 2 || out[1][0] != 6 {
		t.Errorf("pooled values %v", out)
	}
	if got := meanPool(&Matrix{}, x, 1); len(got) != 5 {
		t.Error("stride 1 should be a no-op")
	}
}

// One ConvNetWorkspace reused over sequences of varying length scores
// exactly as a fresh one, and a warm one scores without allocating.
func TestConvNetWorkspaceReuse(t *testing.T) {
	x, y := sequenceData(20, 4)
	net := NewConvNet(ConvNetConfig{
		InputDim: 6, ConvChannels: []int{8, 8}, KernelSize: 3, PoolStride: 2,
		HiddenDim: 8, LearningRate: 5e-3, Epochs: 3, BatchSize: 8, Seed: 2,
	})
	if err := net.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var ws ConvNetWorkspace
	for i, seq := range x {
		want, err := net.PredictProbaWith(&ConvNetWorkspace{}, seq)
		if err != nil {
			t.Fatal(err)
		}
		got, err := net.PredictProbaWith(&ws, seq)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sequence %d (%d frames): %v on a reused workspace, %v fresh", i, len(seq), got, want)
		}
	}
	if raceEnabled {
		return
	}
	longest := x[0]
	for _, seq := range x {
		if len(seq) > len(longest) {
			longest = seq
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { _, _ = net.PredictProbaWith(&ws, longest) }); allocs != 0 {
		t.Fatalf("warm PredictProbaWith allocated %.1f times, want 0", allocs)
	}
}
