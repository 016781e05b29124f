package ml

import (
	"fmt"
	"math/rand/v2"
	"sort"
)

// Oversampling balances a binary dataset by synthesizing minority-class
// samples. The paper compares SMOTE and ADASYN for the imbalanced
// cross-user dataset (§IV-B14) and selects ADASYN, the one kept here.

// ADASYN (He et al. [37]) synthesizes minority samples by linear
// interpolation toward random members of each sample's k nearest
// minority neighbors, until both classes have equal counts, and
// allocates more of them to minority points whose neighborhoods are
// dominated by the majority class (the "hard" boundary region). It
// returns the augmented dataset (originals first).
func ADASYN(x [][]float64, y []int, k int, rng *rand.Rand) ([][]float64, []int, error) {
	minority, majority, err := splitClasses(x, y)
	if err != nil {
		return nil, nil, err
	}
	need := len(majority) - len(minority)
	if need <= 0 {
		return x, y, nil
	}
	if k < 1 {
		k = 5
	}
	minLabel := minorityLabel(y)

	// Difficulty ratio r_i: fraction of majority samples among the k
	// nearest neighbors in the FULL dataset.
	ratios := make([]float64, len(minority))
	var ratioSum float64
	for i, m := range minority {
		nn := nearestInAll(m, x, y, k)
		var maj int
		for _, l := range nn {
			if l != minLabel {
				maj++
			}
		}
		ratios[i] = float64(maj) / float64(len(nn))
		ratioSum += ratios[i]
	}

	// Per-point synthesis budget proportional to difficulty. When all
	// ratios are zero (perfectly separable), fall back to uniform.
	counts := make([]int, len(minority))
	if ratioSum == 0 {
		for i := range counts {
			counts[i] = need / len(minority)
		}
		for i := 0; i < need%len(minority); i++ {
			counts[i]++
		}
	} else {
		assigned := 0
		for i := range counts {
			counts[i] = int(float64(need) * ratios[i] / ratioSum)
			assigned += counts[i]
		}
		for i := 0; assigned < need; i, assigned = i+1, assigned+1 {
			counts[i%len(counts)]++
		}
	}

	neighbors := knnIndices(minority, k)
	outX := append([][]float64{}, x...)
	outY := append([]int{}, y...)
	for i, c := range counts {
		nn := neighbors[i]
		for s := 0; s < c; s++ {
			j := nn[rng.IntN(len(nn))]
			outX = append(outX, interpolate(minority[i], minority[j], rng.Float64()))
			outY = append(outY, minLabel)
		}
	}
	return outX, outY, nil
}

// splitClasses separates a binary dataset into minority and majority
// sample sets.
func splitClasses(x [][]float64, y []int) (minority, majority [][]float64, err error) {
	if len(x) != len(y) || len(x) == 0 {
		return nil, nil, fmt.Errorf("ml: invalid dataset (n=%d, labels=%d)", len(x), len(y))
	}
	counts := CountClasses(y)
	if len(counts) != 2 {
		return nil, nil, fmt.Errorf("ml: oversampling requires exactly 2 classes, have %d", len(counts))
	}
	minLabel := minorityLabel(y)
	for i := range x {
		if y[i] == minLabel {
			minority = append(minority, x[i])
		} else {
			majority = append(majority, x[i])
		}
	}
	return minority, majority, nil
}

// minorityLabel returns the label with the fewest samples (ties break
// toward the smaller label).
func minorityLabel(y []int) int {
	counts := CountClasses(y)
	labels := make([]int, 0, len(counts))
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	best := labels[0]
	for _, l := range labels[1:] {
		if counts[l] < counts[best] {
			best = l
		}
	}
	return best
}

// knnIndices returns, for each point, the indices of its k nearest
// other points within the same set.
func knnIndices(pts [][]float64, k int) [][]int {
	out := make([][]int, len(pts))
	for i := range pts {
		type di struct {
			d   float64
			idx int
		}
		ds := make([]di, 0, len(pts)-1)
		for j := range pts {
			if j == i {
				continue
			}
			ds = append(ds, di{sqDist(pts[i], pts[j]), j})
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a].d < ds[b].d })
		kk := k
		if kk > len(ds) {
			kk = len(ds)
		}
		if kk == 0 {
			out[i] = []int{i} // degenerate single-point class
			continue
		}
		nn := make([]int, kk)
		for t := 0; t < kk; t++ {
			nn[t] = ds[t].idx
		}
		out[i] = nn
	}
	return out
}

// nearestInAll returns the labels of the k nearest points to p in the
// full dataset.
func nearestInAll(p []float64, x [][]float64, y []int, k int) []int {
	type di struct {
		d float64
		l int
	}
	ds := make([]di, len(x))
	for i := range x {
		ds[i] = di{sqDist(p, x[i]), y[i]}
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a].d < ds[b].d })
	if k > len(ds) {
		k = len(ds)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ds[i].l
	}
	return out
}

func sqDist(a, b []float64) float64 {
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return acc
}

func interpolate(a, b []float64, t float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + t*(b[i]-a[i])
	}
	return out
}
