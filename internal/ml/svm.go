package ml

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Kernel is an SVM kernel function.
type Kernel interface {
	Eval(a, b []float64) float64
	String() string
}

// LinearKernel is the inner-product kernel.
type LinearKernel struct{}

var _ Kernel = LinearKernel{}

// Eval implements Kernel.
func (LinearKernel) Eval(a, b []float64) float64 {
	var acc float64
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc
}

func (LinearKernel) String() string { return "linear" }

// RBFKernel is the radial basis function kernel
// exp(-gamma * ||a-b||^2), the paper's choice for the orientation SVM.
type RBFKernel struct {
	Gamma float64
}

var _ Kernel = RBFKernel{}

// Eval implements Kernel.
func (k RBFKernel) Eval(a, b []float64) float64 {
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return math.Exp(-k.Gamma * acc)
}

func (k RBFKernel) String() string { return fmt.Sprintf("rbf(gamma=%g)", k.Gamma) }

// SVM is a binary support vector machine trained with a simplified SMO
// algorithm (Platt 1998). Labels must be 0/1. Construct with NewSVM.
type SVM struct {
	C      float64
	Kernel Kernel
	// Tol is the KKT violation tolerance.
	Tol float64
	// MaxPasses is the number of consecutive no-change sweeps before
	// SMO stops.
	MaxPasses int
	// MaxSweeps bounds total training sweeps.
	MaxSweeps int
	// Seed drives SMO's random second-index choice.
	Seed uint64
	// FitPlatt enables probability calibration after training.
	FitPlatt bool

	// Learned state.
	x              [][]float64
	y              []float64 // ±1
	alpha          []float64
	b              float64
	plattA, plattB float64
	hasPlatt       bool
}

var (
	_ Classifier = (*SVM)(nil)
	_ Scorer     = (*SVM)(nil)
)

// NewSVM returns an SVM with the given regularization and kernel and
// sensible SMO defaults.
func NewSVM(c float64, kernel Kernel) *SVM {
	return &SVM{
		C:         c,
		Kernel:    kernel,
		Tol:       1e-3,
		MaxPasses: 3,
		MaxSweeps: 200,
		Seed:      1,
		FitPlatt:  true,
	}
}

// Fit implements Classifier. It trains on labels 0/1.
func (s *SVM) Fit(x [][]float64, y []int) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("ml: svm: invalid training set (n=%d, labels=%d)", len(x), len(y))
	}
	n := len(x)
	s.x = x
	s.y = make([]float64, n)
	for i, l := range y {
		if l == 1 {
			s.y[i] = 1
		} else {
			s.y[i] = -1
		}
	}
	s.alpha = make([]float64, n)
	s.b = 0
	rng := rand.New(rand.NewPCG(s.Seed, 0x5f3759df))

	// Kernel cache: full matrix for the dataset sizes in this repo.
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := s.Kernel.Eval(x[i], x[j])
			k[i][j] = v
			k[j][i] = v
		}
	}
	f := func(i int) float64 {
		var acc float64
		for t := 0; t < n; t++ {
			if s.alpha[t] != 0 {
				acc += s.alpha[t] * s.y[t] * k[t][i]
			}
		}
		return acc + s.b
	}

	passes := 0
	sweeps := 0
	for passes < s.MaxPasses && sweeps < s.MaxSweeps {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - s.y[i]
			if !((s.y[i]*ei < -s.Tol && s.alpha[i] < s.C) || (s.y[i]*ei > s.Tol && s.alpha[i] > 0)) {
				continue
			}
			j := rng.IntN(n - 1)
			if j >= i {
				j++
			}
			ej := f(j) - s.y[j]
			ai, aj := s.alpha[i], s.alpha[j]
			var lo, hi float64
			if s.y[i] != s.y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(s.C, s.C+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-s.C)
				hi = math.Min(s.C, ai+aj)
			}
			if lo == hi {
				continue
			}
			eta := 2*k[i][j] - k[i][i] - k[j][j]
			if eta >= 0 {
				continue
			}
			ajNew := aj - s.y[j]*(ei-ej)/eta
			if ajNew > hi {
				ajNew = hi
			}
			if ajNew < lo {
				ajNew = lo
			}
			if math.Abs(ajNew-aj) < 1e-6 {
				continue
			}
			aiNew := ai + s.y[i]*s.y[j]*(aj-ajNew)
			b1 := s.b - ei - s.y[i]*(aiNew-ai)*k[i][i] - s.y[j]*(ajNew-aj)*k[i][j]
			b2 := s.b - ej - s.y[i]*(aiNew-ai)*k[i][j] - s.y[j]*(ajNew-aj)*k[j][j]
			switch {
			case aiNew > 0 && aiNew < s.C:
				s.b = b1
			case ajNew > 0 && ajNew < s.C:
				s.b = b2
			default:
				s.b = (b1 + b2) / 2
			}
			s.alpha[i], s.alpha[j] = aiNew, ajNew
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
		sweeps++
	}

	// Compact to support vectors only.
	var sx [][]float64
	var sy, sa []float64
	for i := 0; i < n; i++ {
		if s.alpha[i] > 1e-9 {
			sx = append(sx, x[i])
			sy = append(sy, s.y[i])
			sa = append(sa, s.alpha[i])
		}
	}
	s.x, s.y, s.alpha = sx, sy, sa

	if s.FitPlatt {
		scores := make([]float64, len(x))
		labels := make([]int, len(y))
		for i := range x {
			scores[i] = s.decision(x[i])
			labels[i] = y[i]
		}
		s.plattA, s.plattB = fitPlatt(scores, labels)
		s.hasPlatt = true
	}
	return nil
}

// decision returns the raw SVM margin for x.
func (s *SVM) decision(x []float64) float64 {
	var acc float64
	for t := range s.x {
		acc += s.alpha[t] * s.y[t] * s.Kernel.Eval(s.x[t], x)
	}
	return acc + s.b
}

// Predict implements Classifier.
func (s *SVM) Predict(x []float64) int {
	if s.decision(x) >= 0 {
		return 1
	}
	return 0
}

// Score implements Scorer: the raw decision margin.
func (s *SVM) Score(x []float64) float64 { return s.decision(x) }

// PredictProba returns the Platt-calibrated probability of class 1, or
// a logistic squash of the margin when calibration was disabled.
func (s *SVM) PredictProba(x []float64) float64 {
	d := s.decision(x)
	if s.hasPlatt {
		return 1 / (1 + math.Exp(s.plattA*d+s.plattB))
	}
	return 1 / (1 + math.Exp(-d))
}

// fitPlatt fits sigmoid parameters (A, B) for P(y=1|score) =
// 1/(1+exp(A*s+B)) by regularized maximum likelihood (Lin, Lin & Weng
// 2007 pseudocode, Newton with backtracking).
func fitPlatt(scores []float64, labels []int) (a, b float64) {
	n := len(scores)
	var prior1, prior0 float64
	for _, l := range labels {
		if l == 1 {
			prior1++
		} else {
			prior0++
		}
	}
	hiTarget := (prior1 + 1) / (prior1 + 2)
	loTarget := 1 / (prior0 + 2)
	t := make([]float64, n)
	for i, l := range labels {
		if l == 1 {
			t[i] = hiTarget
		} else {
			t[i] = loTarget
		}
	}
	a, b = 0, math.Log((prior0+1)/(prior1+1))
	const (
		maxIter = 100
		minStep = 1e-10
		sigma   = 1e-12
	)
	fval := plattObjective(scores, t, a, b)
	for iter := 0; iter < maxIter; iter++ {
		var h11, h22, h21, g1, g2 float64
		h11, h22 = sigma, sigma
		for i := 0; i < n; i++ {
			fApB := scores[i]*a + b
			var p, q float64
			if fApB >= 0 {
				e := math.Exp(-fApB)
				p = e / (1 + e)
				q = 1 / (1 + e)
			} else {
				e := math.Exp(fApB)
				p = 1 / (1 + e)
				q = e / (1 + e)
			}
			d2 := p * q
			h11 += scores[i] * scores[i] * d2
			h22 += d2
			h21 += scores[i] * d2
			d1 := t[i] - p
			g1 += scores[i] * d1
			g2 += d1
		}
		if math.Abs(g1) < 1e-5 && math.Abs(g2) < 1e-5 {
			break
		}
		det := h11*h22 - h21*h21
		dA := -(h22*g1 - h21*g2) / det
		dB := -(-h21*g1 + h11*g2) / det
		gd := g1*dA + g2*dB
		step := 1.0
		for step >= minStep {
			newA, newB := a+step*dA, b+step*dB
			newF := plattObjective(scores, t, newA, newB)
			if newF < fval+1e-4*step*gd {
				a, b, fval = newA, newB, newF
				break
			}
			step /= 2
		}
		if step < minStep {
			break
		}
	}
	return a, b
}

func plattObjective(scores, t []float64, a, b float64) float64 {
	var f float64
	for i := range scores {
		fApB := scores[i]*a + b
		if fApB >= 0 {
			f += t[i]*fApB + math.Log(1+math.Exp(-fApB))
		} else {
			f += (t[i]-1)*fApB + math.Log(1+math.Exp(fApB))
		}
	}
	return f
}
