// Package ml implements the machine-learning stack the paper relies
// on, from scratch on the standard library: an SMO-trained SVM with RBF
// kernel (the paper's orientation classifier), CART decision trees,
// bagged random forests, k-nearest neighbors, a small convolutional
// network (the wav2vec2 stand-in for liveness detection), ADASYN
// oversampling, cross-validation and the usual evaluation
// metrics including equal error rate.
package ml

import "fmt"

// Classifier is a trainable binary (or small multi-class) classifier
// over dense feature vectors. Labels are small non-negative ints; the
// orientation task uses 0 = non-facing, 1 = facing.
type Classifier interface {
	Fit(x [][]float64, y []int) error
	Predict(x []float64) int
}

// Scorer exposes a continuous decision score for class 1, used for
// EER computation and confidence-based incremental learning.
type Scorer interface {
	Score(x []float64) float64
}

// Standardizer scales features to zero mean / unit variance using
// statistics from the training set.
type Standardizer struct {
	mean, std []float64
}

// Fit computes per-feature statistics from x.
func (s *Standardizer) Fit(x [][]float64) error {
	if len(x) == 0 {
		return fmt.Errorf("ml: cannot fit standardizer on empty data")
	}
	d := len(x[0])
	s.mean = make([]float64, d)
	s.std = make([]float64, d)
	for _, row := range x {
		if len(row) != d {
			return fmt.Errorf("ml: ragged feature matrix (%d vs %d)", len(row), d)
		}
		for j, v := range row {
			s.mean[j] += v
		}
	}
	n := float64(len(x))
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.mean[j]
			s.std[j] += d * d
		}
	}
	for j := range s.std {
		s.std[j] = sqrtf(s.std[j] / n)
		if s.std[j] < 1e-12 {
			s.std[j] = 1
		}
	}
	return nil
}

// Transform returns a standardized copy of one feature vector.
// Features beyond the fitted dimensionality are dropped.
func (s *Standardizer) Transform(x []float64) []float64 {
	return s.TransformInto(nil, x)
}

// TransformInto standardizes x into dst (grown if needed) and returns
// it. With a caller-reused dst of sufficient capacity it performs no
// allocation. Features beyond the fitted dimensionality are dropped.
func (s *Standardizer) TransformInto(dst, x []float64) []float64 {
	d := len(s.mean)
	if len(x) < d {
		d = len(x)
	}
	if cap(dst) < d {
		dst = make([]float64, d)
	}
	dst = dst[:d]
	for j := 0; j < d; j++ {
		dst[j] = (x[j] - s.mean[j]) / s.std[j]
	}
	return dst
}

// TransformAll standardizes a full matrix.
func (s *Standardizer) TransformAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = s.Transform(row)
	}
	return out
}

// Pipeline standardizes features before delegating to an inner
// classifier. The zero value is not usable; construct with
// NewPipeline.
type Pipeline struct {
	scaler Standardizer
	clf    Classifier
}

// NewPipeline wraps clf with feature standardization.
func NewPipeline(clf Classifier) *Pipeline {
	return &Pipeline{clf: clf}
}

var (
	_ Classifier = (*Pipeline)(nil)
)

// Fit implements Classifier.
func (p *Pipeline) Fit(x [][]float64, y []int) error {
	if err := p.scaler.Fit(x); err != nil {
		return err
	}
	return p.clf.Fit(p.scaler.TransformAll(x), y)
}

// Predict implements Classifier.
func (p *Pipeline) Predict(x []float64) int {
	return p.clf.Predict(p.scaler.Transform(x))
}

// Score implements Scorer when the inner classifier does.
func (p *Pipeline) Score(x []float64) float64 {
	if s, ok := p.clf.(Scorer); ok {
		return s.Score(p.scaler.Transform(x))
	}
	return float64(p.clf.Predict(p.scaler.Transform(x)))
}

// PredictScore returns the label and the continuous class-1 score from
// a single standardization pass, writing the standardized vector into
// scratch (grown if needed; the grown slice is returned for reuse).
// It is exactly Predict followed by Score, minus the duplicate
// standardization and — for an SVM inner classifier — the duplicate
// kernel sweep over the support set. With a warm scratch it performs no
// allocation, which is what the serving path's per-worker arenas rely
// on.
func (p *Pipeline) PredictScore(x, scratch []float64) (label int, score float64, z []float64) {
	z = p.scaler.TransformInto(scratch, x)
	if svm, ok := p.clf.(*SVM); ok {
		score = svm.Score(z)
		if score >= 0 {
			label = 1
		}
		return label, score, z
	}
	label = p.clf.Predict(z)
	score = float64(label)
	if s, ok := p.clf.(Scorer); ok {
		score = s.Score(z)
	}
	return label, score, z
}

// TransformFeature applies the fitted standardizer to one raw feature
// vector, for callers that need to talk to the inner classifier
// directly (e.g. Platt-calibrated confidence queries).
func (p *Pipeline) TransformFeature(x []float64) []float64 {
	return p.scaler.Transform(x)
}

// MarshalJSON serializes the pipeline's fitted scaler (the inner
// classifier is serialized separately by its own format).
func (p *Pipeline) MarshalJSON() ([]byte, error) {
	return p.scaler.MarshalJSON()
}

// RestorePipeline rebuilds a pipeline from a serialized scaler document
// and an already-deserialized inner classifier.
func RestorePipeline(scalerJSON []byte, clf Classifier) (*Pipeline, error) {
	p := NewPipeline(clf)
	if err := p.scaler.UnmarshalJSON(scalerJSON); err != nil {
		return nil, err
	}
	return p, nil
}

// CountClasses returns a map from label to count.
func CountClasses(y []int) map[int]int {
	out := make(map[int]int)
	for _, v := range y {
		out[v]++
	}
	return out
}
