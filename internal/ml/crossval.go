package ml

import (
	"fmt"
	"math/rand/v2"
)

// CrossValidate runs k-fold cross-validation with fresh classifiers
// from factory and returns the mean accuracy across folds.
func CrossValidate(factory func() Classifier, x [][]float64, y []int, folds int, seed uint64) (float64, error) {
	if folds < 2 {
		return 0, fmt.Errorf("ml: cross-validation needs >= 2 folds, got %d", folds)
	}
	if len(x) < folds {
		return 0, fmt.Errorf("ml: %d samples cannot fill %d folds", len(x), folds)
	}
	n := len(x)
	perm := rand.New(rand.NewPCG(seed, 0xC0FFEE)).Perm(n)

	var totalCorrect, totalSeen int
	for f := 0; f < folds; f++ {
		var trainX [][]float64
		var trainY []int
		var testX [][]float64
		var testY []int
		for i, p := range perm {
			if i%folds == f {
				testX = append(testX, x[p])
				testY = append(testY, y[p])
			} else {
				trainX = append(trainX, x[p])
				trainY = append(trainY, y[p])
			}
		}
		clf := factory()
		if err := clf.Fit(trainX, trainY); err != nil {
			return 0, fmt.Errorf("ml: fold %d fit: %w", f, err)
		}
		for i, tx := range testX {
			if clf.Predict(tx) == testY[i] {
				totalCorrect++
			}
			totalSeen++
		}
	}
	if totalSeen == 0 {
		return 0, fmt.Errorf("ml: no test samples across folds")
	}
	return float64(totalCorrect) / float64(totalSeen), nil
}
