package ml

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// imbalanced builds a 2-class dataset with the given counts.
func imbalanced(nMinority, nMajority int, seed uint64) ([][]float64, []int) {
	rng := rand.New(rand.NewPCG(seed, 1))
	var x [][]float64
	var y []int
	for i := 0; i < nMinority; i++ {
		x = append(x, []float64{1 + 0.2*rng.NormFloat64(), 1 + 0.2*rng.NormFloat64()})
		y = append(y, 1)
	}
	for i := 0; i < nMajority; i++ {
		x = append(x, []float64{-1 + 0.2*rng.NormFloat64(), -1 + 0.2*rng.NormFloat64()})
		y = append(y, 0)
	}
	return x, y
}

func TestADASYNSyntheticWithinConvexHull(t *testing.T) {
	// ADASYN interpolates between minority points, so synthetic
	// minority samples must lie inside the minority bounding box.
	x, y := imbalanced(15, 50, 3)
	var lo, hi [2]float64
	lo = [2]float64{1e18, 1e18}
	hi = [2]float64{-1e18, -1e18}
	for i := range x {
		if y[i] != 1 {
			continue
		}
		for d := 0; d < 2; d++ {
			if x[i][d] < lo[d] {
				lo[d] = x[i][d]
			}
			if x[i][d] > hi[d] {
				hi[d] = x[i][d]
			}
		}
	}
	rng := rand.New(rand.NewPCG(4, 4))
	bx, by, err := ADASYN(x, y, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(x); i < len(bx); i++ {
		if by[i] != 1 {
			t.Fatalf("synthetic sample %d has majority label", i)
		}
		for d := 0; d < 2; d++ {
			if bx[i][d] < lo[d]-1e-9 || bx[i][d] > hi[d]+1e-9 {
				t.Fatalf("synthetic sample outside minority hull: %v", bx[i])
			}
		}
	}
}

func TestADASYNBalances(t *testing.T) {
	x, y := imbalanced(12, 48, 5)
	rng := rand.New(rand.NewPCG(6, 6))
	bx, by, err := ADASYN(x, y, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := CountClasses(by)
	if counts[0] != counts[1] {
		t.Errorf("ADASYN did not balance: %v", counts)
	}
	if len(bx) != 96 || len(by) != 96 {
		t.Errorf("total %d samples, %d labels, want 96", len(bx), len(by))
	}
	// Originals preserved at the front.
	for i := range x {
		if &bx[i][0] != &x[i][0] {
			t.Fatal("ADASYN moved original samples")
		}
	}
}

func TestADASYNFocusesHardRegion(t *testing.T) {
	// Minority points: one cluster deep in minority territory, one
	// point surrounded by majority. ADASYN should synthesize more near
	// the hard point.
	x := [][]float64{
		// Easy minority cluster.
		{5, 5}, {5.1, 5}, {5, 5.1}, {5.1, 5.1},
		// Hard minority point inside majority region.
		{0, 0},
	}
	y := []int{1, 1, 1, 1, 1}
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 25; i++ {
		x = append(x, []float64{0.3 * rng.NormFloat64(), 0.3 * rng.NormFloat64()})
		y = append(y, 0)
	}
	bx, by, err := ADASYN(x, y, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	nearHard, nearEasy := 0, 0
	for i := 30; i < len(bx); i++ {
		if by[i] != 1 {
			continue
		}
		dHard := bx[i][0]*bx[i][0] + bx[i][1]*bx[i][1]
		dEasy := (bx[i][0]-5)*(bx[i][0]-5) + (bx[i][1]-5)*(bx[i][1]-5)
		if dHard < dEasy {
			nearHard++
		} else {
			nearEasy++
		}
	}
	if nearHard <= nearEasy {
		t.Errorf("ADASYN synthesized %d near hard point vs %d near easy cluster", nearHard, nearEasy)
	}
}

func TestOversamplingNoOpWhenBalanced(t *testing.T) {
	x, y := imbalanced(20, 20, 8)
	rng := rand.New(rand.NewPCG(9, 9))
	bx, _, err := ADASYN(x, y, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(bx) != len(x) {
		t.Error("balanced data should pass through ADASYN unchanged")
	}
}

func TestOversamplingErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	if _, _, err := ADASYN(nil, nil, 5, rng); err == nil {
		t.Error("expected error on empty data")
	}
	x := [][]float64{{1}, {2}, {3}}
	if _, _, err := ADASYN(x, []int{0, 0, 0}, 5, rng); err == nil {
		t.Error("expected error on single-class data")
	}
	if _, _, err := ADASYN(x, []int{0, 1, 2}, 5, rng); err == nil {
		t.Error("expected error on 3-class data")
	}
}

func TestMinorityLabel(t *testing.T) {
	if got := minorityLabel([]int{0, 0, 0, 1}); got != 1 {
		t.Errorf("minority = %d", got)
	}
	// Tie breaks toward smaller label.
	if got := minorityLabel([]int{0, 1}); got != 0 {
		t.Errorf("tie minority = %d", got)
	}
}

func TestInterpolateProperty(t *testing.T) {
	f := func(a, b [2]float64, tRaw float64) bool {
		tt := clamp(tRaw)
		tt = math.Abs(tt - math.Trunc(tt)) // fractional part in [0,1)
		av := []float64{clamp(a[0]), clamp(a[1])}
		bv := []float64{clamp(b[0]), clamp(b[1])}
		out := interpolate(av, bv, tt)
		for d := 0; d < 2; d++ {
			lo, hi := av[d], bv[d]
			if lo > hi {
				lo, hi = hi, lo
			}
			if out[d] < lo-1e-9 || out[d] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
