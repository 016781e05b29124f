package ml

import (
	"fmt"
	"math"
	"sort"
)

func sqrtf(x float64) float64 { return math.Sqrt(x) }

// BinaryMetrics summarizes binary classification quality with the
// measures the paper reports: accuracy, precision, recall, F1, the
// true-positive rate, false-acceptance rate (FAR: non-facing accepted
// as facing) and false-rejection rate (FRR: facing rejected).
type BinaryMetrics struct {
	TP, FP, TN, FN int
}

// EvaluateBinary scores predictions against ground truth (label 1 is
// the positive class).
func EvaluateBinary(yTrue, yPred []int) (BinaryMetrics, error) {
	if len(yTrue) != len(yPred) {
		return BinaryMetrics{}, fmt.Errorf("ml: label length mismatch %d != %d", len(yTrue), len(yPred))
	}
	var m BinaryMetrics
	for i := range yTrue {
		switch {
		case yTrue[i] == 1 && yPred[i] == 1:
			m.TP++
		case yTrue[i] == 1 && yPred[i] != 1:
			m.FN++
		case yTrue[i] != 1 && yPred[i] == 1:
			m.FP++
		default:
			m.TN++
		}
	}
	return m, nil
}

// Total returns the number of scored samples.
func (m BinaryMetrics) Total() int { return m.TP + m.FP + m.TN + m.FN }

// Accuracy returns (TP+TN)/total.
func (m BinaryMetrics) Accuracy() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return float64(m.TP+m.TN) / float64(t)
}

// Precision returns TP/(TP+FP), or 0 when undefined.
func (m BinaryMetrics) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Recall (= TPR) returns TP/(TP+FN), or 0 when undefined.
func (m BinaryMetrics) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (m BinaryMetrics) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// FAR returns FP/(FP+TN): the rate at which negatives are accepted.
func (m BinaryMetrics) FAR() float64 {
	if m.FP+m.TN == 0 {
		return 0
	}
	return float64(m.FP) / float64(m.FP+m.TN)
}

// FRR returns FN/(TP+FN): the rate at which positives are rejected.
func (m BinaryMetrics) FRR() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.FN) / float64(m.TP+m.FN)
}

// String formats the headline numbers.
func (m BinaryMetrics) String() string {
	return fmt.Sprintf("acc=%.2f%% prec=%.2f%% rec=%.2f%% f1=%.2f%% far=%.2f%% frr=%.2f%%",
		100*m.Accuracy(), 100*m.Precision(), 100*m.Recall(), 100*m.F1(), 100*m.FAR(), 100*m.FRR())
}

// EER computes the equal error rate from continuous scores (higher =
// more positive) and binary labels: the operating point where the
// false-acceptance and false-rejection rates cross, linearly
// interpolated. It also returns the threshold at which the EER occurs.
func EER(scores []float64, labels []int) (eer, threshold float64, err error) {
	if len(scores) != len(labels) {
		return 0, 0, fmt.Errorf("ml: score/label length mismatch %d != %d", len(scores), len(labels))
	}
	var pos, neg int
	for _, l := range labels {
		if l == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0, 0, fmt.Errorf("ml: EER requires both classes (pos=%d neg=%d)", pos, neg)
	}
	type sl struct {
		s float64
		l int
	}
	pairs := make([]sl, len(scores))
	for i := range scores {
		pairs[i] = sl{scores[i], labels[i]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].s < pairs[j].s })

	// Sweep the threshold from below the minimum score upward. At
	// threshold t (accept score >= t): FRR = positives below t / pos,
	// FAR = negatives at or above t / neg.
	fnCount := 0
	fpCount := neg
	bestDiff := math.Inf(1)
	prevFAR, prevFRR, prevThr := 1.0, 0.0, pairs[0].s-1
	eer, threshold = 0.5, pairs[0].s-1
	for i := 0; i <= len(pairs); i++ {
		far := float64(fpCount) / float64(neg)
		frr := float64(fnCount) / float64(pos)
		var thr float64
		if i < len(pairs) {
			thr = pairs[i].s
		} else {
			thr = pairs[len(pairs)-1].s + 1
		}
		if far <= frr {
			// Crossed: interpolate between the previous and current
			// operating points.
			d1 := prevFRR - prevFAR // negative or zero
			d2 := frr - far         // positive or zero
			if d2-d1 != 0 {
				t := -d1 / (d2 - d1)
				eer = prevFAR + t*(far-prevFAR)
				threshold = prevThr + t*(thr-prevThr)
			} else {
				eer = (far + frr) / 2
				threshold = thr
			}
			return eer, threshold, nil
		}
		if diff := math.Abs(far - frr); diff < bestDiff {
			bestDiff = diff
			eer = (far + frr) / 2
			threshold = thr
		}
		prevFAR, prevFRR, prevThr = far, frr, thr
		if i < len(pairs) {
			if pairs[i].l == 1 {
				fnCount++
			} else {
				fpCount--
			}
		}
	}
	return eer, threshold, nil
}

// MeanStd returns the mean and sample standard deviation of values.
func MeanStd(values []float64) (mean, std float64) {
	if len(values) == 0 {
		return 0, 0
	}
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	if len(values) < 2 {
		return mean, 0
	}
	var acc float64
	for _, v := range values {
		d := v - mean
		acc += d * d
	}
	return mean, math.Sqrt(acc / float64(len(values)-1))
}
