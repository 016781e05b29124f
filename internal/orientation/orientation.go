// Package orientation decides whether a speaker is facing the voice
// assistant from the acoustic features of one utterance (paper
// §III-B). It defines the four facing/non-facing training-arc
// definitions of Table III, wraps the SVM (or any ml.Classifier) in a
// standardization pipeline, and implements the confidence-filtered
// incremental retraining used for temporal stability (§IV-B9).
package orientation

import (
	"fmt"
	"math"

	"headtalk/internal/geom"
	"headtalk/internal/ml"
)

// Labels.
const (
	LabelNonFacing = 0
	LabelFacing    = 1
)

// Definition is a facing/non-facing training-arc assignment: angles in
// Facing train as class 1, angles in NonFacing as class 0, all other
// angles are borderline and excluded from training (paper §IV-A2).
type Definition struct {
	Name      string
	Facing    []float64
	NonFacing []float64
}

// The paper's four candidate definitions (Table III). Definition4 wins
// and is the default for all sensitivity experiments.
var (
	Definition1 = Definition{
		Name:      "Definition-1",
		Facing:    []float64{0, 15, -15, 30, -30, 45, -45},
		NonFacing: []float64{60, -60, 75, -75, 90, -90, 135, -135, 180},
	}
	Definition2 = Definition{
		Name:      "Definition-2",
		Facing:    []float64{0, 15, -15, 30, -30},
		NonFacing: []float64{60, -60, 75, -75, 90, -90, 135, -135, 180},
	}
	Definition3 = Definition{
		Name:      "Definition-3",
		Facing:    []float64{0, 15, -15, 30, -30},
		NonFacing: []float64{75, -75, 90, -90, 135, -135, 180},
	}
	Definition4 = Definition{
		Name:      "Definition-4",
		Facing:    []float64{0, 15, -15, 30, -30},
		NonFacing: []float64{90, -90, 135, -135, 180},
	}
)

// Definitions returns all four in Table III order.
func Definitions() []Definition {
	return []Definition{Definition1, Definition2, Definition3, Definition4}
}

// Label returns the training label for an exact collection angle and
// whether the angle belongs to the definition's training arcs at all.
func (d Definition) Label(angleDeg float64) (int, bool) {
	a := geom.NormalizeDeg(angleDeg)
	for _, f := range d.Facing {
		if angleEq(a, f) {
			return LabelFacing, true
		}
	}
	for _, n := range d.NonFacing {
		if angleEq(a, n) {
			return LabelNonFacing, true
		}
	}
	return 0, false
}

func angleEq(a, b float64) bool {
	return math.Abs(geom.NormalizeDeg(a-b)) < 0.5
}

// GroundTruthFacing reports whether an angle falls inside HeadTalk's
// forward-facing zone of [-30, 30] degrees (paper §III-B1, Fig. 4b).
// This is the semantic truth used to score borderline angles.
func GroundTruthFacing(angleDeg float64) bool {
	a := geom.NormalizeDeg(angleDeg)
	return a >= -30.5 && a <= 30.5
}

// ModelConfig controls classifier construction.
type ModelConfig struct {
	// C and Gamma parameterize the RBF SVM. Zero values select C=1
	// and gamma=1/d (features are standardized first), the optimum of
	// a grid search on the Table III cell.
	C, Gamma float64
	// Seed drives SMO randomness.
	Seed uint64
}

// Model is a trained facing/non-facing classifier over orientation
// feature vectors.
type Model struct {
	cfg  ModelConfig
	pipe *ml.Pipeline
	svm  *ml.SVM
	// Retained training set for incremental retraining.
	trainX [][]float64
	trainY []int
}

// Train fits a fresh model on feature vectors and labels.
func Train(x [][]float64, y []int, cfg ModelConfig) (*Model, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("orientation: invalid training set (n=%d, labels=%d)", len(x), len(y))
	}
	c := cfg.C
	if c == 0 {
		c = 1
	}
	gamma := cfg.Gamma
	if gamma == 0 {
		gamma = 1 / float64(len(x[0]))
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	svm := ml.NewSVM(c, ml.RBFKernel{Gamma: gamma})
	svm.Seed = seed
	pipe := ml.NewPipeline(svm)

	m := &Model{cfg: cfg, pipe: pipe, svm: svm}
	m.trainX = append(m.trainX, x...)
	m.trainY = append(m.trainY, y...)
	if err := pipe.Fit(m.trainX, m.trainY); err != nil {
		return nil, fmt.Errorf("orientation: training SVM: %w", err)
	}
	return m, nil
}

// TrainWith fits a model around an arbitrary classifier (for the
// classifier-comparison experiment).
func TrainWith(x [][]float64, y []int, clf ml.Classifier) (*Model, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("orientation: invalid training set (n=%d, labels=%d)", len(x), len(y))
	}
	pipe := ml.NewPipeline(clf)
	m := &Model{pipe: pipe}
	m.trainX = append(m.trainX, x...)
	m.trainY = append(m.trainY, y...)
	if err := pipe.Fit(m.trainX, m.trainY); err != nil {
		return nil, fmt.Errorf("orientation: training classifier: %w", err)
	}
	return m, nil
}

// FeatureDim returns the feature-vector length the model was trained
// on, or 0 when unknown (a model loaded without its retained training
// set).
func (m *Model) FeatureDim() int {
	if len(m.trainX) == 0 {
		return 0
	}
	return len(m.trainX[0])
}

// CheckFeatures rejects a feature vector the model cannot meaningfully
// score: wrong dimensionality (a degraded array's pair set no longer
// matches the trained one) or non-finite values (an upstream DSP
// fault). Scoring such a vector would yield an arbitrary label, so a
// fail-closed caller must treat the returned error as a reject.
func (m *Model) CheckFeatures(x []float64) error {
	if d := m.FeatureDim(); d != 0 && len(x) != d {
		return fmt.Errorf("orientation: feature vector has %d dims, model trained on %d", len(x), d)
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("orientation: non-finite feature at index %d", i)
		}
	}
	return nil
}

// Predict returns LabelFacing or LabelNonFacing for one feature
// vector.
func (m *Model) Predict(x []float64) int { return m.pipe.Predict(x) }

// Score returns the continuous facing score (SVM margin or classifier
// probability).
func (m *Model) Score(x []float64) float64 { return m.pipe.Score(x) }

// PredictScore returns Predict and Score from one standardization pass,
// writing the standardized vector into scratch (grown if needed and
// returned for reuse). Bit-identical to calling Predict then Score;
// alloc-free with a warm scratch.
func (m *Model) PredictScore(x, scratch []float64) (int, float64, []float64) {
	return m.pipe.PredictScore(x, scratch)
}

// Confidence returns the calibrated probability that x is facing, used
// by the incremental-learning confidence filter. For non-SVM
// classifiers it falls back to the raw score clipped to [0, 1].
func (m *Model) Confidence(x []float64) float64 {
	if m.svm != nil {
		// The pipeline standardizes internally for Predict/Score, so
		// transform the same way here via Score's Platt calibration.
		p := m.svm.PredictProba(m.standardized(x))
		return p
	}
	s := m.pipe.Score(x)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// standardized applies the pipeline's fitted scaler to x so the raw
// SVM can be queried directly for Platt-calibrated probabilities.
func (m *Model) standardized(x []float64) []float64 {
	return m.pipe.TransformFeature(x)
}

// Evaluate scores a labeled test set.
func (m *Model) Evaluate(x [][]float64, y []int) (ml.BinaryMetrics, error) {
	if len(x) != len(y) {
		return ml.BinaryMetrics{}, fmt.Errorf("orientation: %d samples vs %d labels", len(x), len(y))
	}
	preds := make([]int, len(x))
	for i := range x {
		preds[i] = m.Predict(x[i])
	}
	return ml.EvaluateBinary(y, preds)
}

// IncrementalUpdate appends high-confidence test samples (confidence >=
// minConfidence for their predicted label) to the training set with
// their predicted labels and rebuilds the model, mirroring §IV-B9's
// periodic rebuild with self-labeled data. It returns how many of the
// candidates were absorbed.
func (m *Model) IncrementalUpdate(candidates [][]float64, minConfidence float64) (int, error) {
	added := 0
	for _, x := range candidates {
		p := m.Confidence(x)
		label := LabelNonFacing
		conf := 1 - p
		if p >= 0.5 {
			label = LabelFacing
			conf = p
		}
		if conf < minConfidence {
			continue
		}
		m.trainX = append(m.trainX, x)
		m.trainY = append(m.trainY, label)
		added++
	}
	if added == 0 {
		return 0, nil
	}
	if err := m.refit(); err != nil {
		return added, err
	}
	return added, nil
}

func (m *Model) refit() error {
	if m.svm != nil {
		c := m.cfg.C
		if c == 0 {
			c = 1
		}
		gamma := m.cfg.Gamma
		if gamma == 0 {
			gamma = 1 / float64(len(m.trainX[0]))
		}
		seed := m.cfg.Seed
		if seed == 0 {
			seed = 1
		}
		svm := ml.NewSVM(c, ml.RBFKernel{Gamma: gamma})
		svm.Seed = seed
		m.svm = svm
		m.pipe = ml.NewPipeline(svm)
	}
	return m.pipe.Fit(m.trainX, m.trainY)
}
