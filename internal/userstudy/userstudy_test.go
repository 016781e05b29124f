package userstudy

import (
	"math"
	"testing"
)

func TestTableVTotals(t *testing.T) {
	// Every question was answered by all 20 participants.
	for _, q := range TableV() {
		got := 0
		for _, c := range q.Counts {
			got += c
		}
		if got != 20 {
			t.Errorf("%q: %d respondents, want 20", q.Question, got)
		}
		if len(q.Options) != len(q.Counts) {
			t.Errorf("%q: options/counts mismatch", q.Question)
		}
	}
}

func TestTakeawayPercentages(t *testing.T) {
	qs := TableV()
	// 95% (19/20) found HeadTalk easy.
	easy, err := qs[2].TopTwoFraction()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(easy-0.95) > 1e-9 {
		t.Errorf("ease takeaway %g, want 0.95", easy)
	}
	// 70% (14/20) would deploy it.
	deploy, err := qs[3].TopTwoFraction()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(deploy-0.70) > 1e-9 {
		t.Errorf("deploy takeaway %g, want 0.70", deploy)
	}
	// 70% (14/20) rate it better than existing controls.
	better, err := qs[4].TopTwoFraction()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(better-0.70) > 1e-9 {
		t.Errorf("better takeaway %g, want 0.70", better)
	}
}

func TestFacingHabitSkipsNA(t *testing.T) {
	// 10 of the 15 VA owners face the device often/very often, but the
	// "top two" of the substantive options are "Very less"+"Less"
	// (the favorable-first convention doesn't apply to this neutral
	// question) — verify the N/A skip arithmetic instead.
	q := TableV()[1]
	frac, err := q.TopTwoFraction()
	if err != nil {
		t.Fatal(err)
	}
	// Denominator must be 15 (20 minus 5 N/A).
	if math.Abs(frac-(1.0+4.0)/15.0) > 1e-9 {
		t.Errorf("fraction %g, want 5/15", frac)
	}
}

func TestPaperSUS(t *testing.T) {
	ht, existing := PaperSUS()
	if ht.Mean != 77.38 || ht.CI95 != 6.26 || ht.N != 20 {
		t.Errorf("HeadTalk SUS %+v", ht)
	}
	if existing.Mean != 74.75 || existing.CI95 != 8.12 {
		t.Errorf("existing SUS %+v", existing)
	}
	if !ht.AboveAverage() || !existing.AboveAverage() {
		t.Error("both controls clear the benchmark in the paper")
	}
	if ht.Mean <= existing.Mean {
		t.Error("HeadTalk should score above the existing control")
	}
	if s := ht.String(); s == "" {
		t.Error("empty SUS summary string")
	}
}
