package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func vecAlmostEq(a, b Vec3, tol float64) bool {
	return math.Abs(a.X-b.X) <= tol && math.Abs(a.Y-b.Y) <= tol && math.Abs(a.Z-b.Z) <= tol
}

func TestVecArithmetic(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, -5, 6}
	if got := a.Add(b); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %+v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %+v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %+v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %g", got)
	}
}

func TestNormDist(t *testing.T) {
	v := Vec3{3, 4, 0}
	if v.Norm() != 5 {
		t.Errorf("Norm = %g", v.Norm())
	}
	if got := v.Dist(Vec3{0, 0, 0}); got != 5 {
		t.Errorf("Dist = %g", got)
	}
}

func TestDegRadRoundTrip(t *testing.T) {
	for _, d := range []float64{0, 45, 90, -135, 180} {
		if got := Rad2Deg(Deg2Rad(d)); math.Abs(got-d) > 1e-12 {
			t.Errorf("round trip %g -> %g", d, got)
		}
	}
}

func TestNormalizeDeg(t *testing.T) {
	cases := map[float64]float64{
		0: 0, 180: 180, -180: 180, 181: -179, 360: 0, 540: 180, -90: -90, 720: 0, -541: 179,
	}
	for in, want := range cases {
		if got := NormalizeDeg(in); math.Abs(got-want) > 1e-9 {
			t.Errorf("NormalizeDeg(%g) = %g, want %g", in, got, want)
		}
	}
}

func TestNormalizeDegProperty(t *testing.T) {
	f := func(d float64) bool {
		if math.IsNaN(d) || math.IsInf(d, 0) || math.Abs(d) > 1e9 {
			return true
		}
		got := NormalizeDeg(d)
		return got > -180-1e-9 && got <= 180+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeadingAzimuthInverse(t *testing.T) {
	for _, az := range []float64{0, 30, 90, -45, 135, 180} {
		v := HeadingVec(az)
		if got := Azimuth(v); math.Abs(NormalizeDeg(got-az)) > 1e-9 {
			t.Errorf("Azimuth(HeadingVec(%g)) = %g", az, got)
		}
	}
	if Azimuth(Vec3{}) != 0 {
		t.Error("azimuth of zero vector should be 0")
	}
}

func TestAngleBetweenDeg(t *testing.T) {
	origin := Vec3{}
	target := Vec3{X: 1}
	cases := []struct {
		facing float64
		want   float64
	}{
		{0, 0}, {90, 90}, {180, 180}, {-90, 90}, {45, 45},
	}
	for _, c := range cases {
		got := AngleBetweenDeg(HeadingVec(c.facing), origin, target)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("facing %g°: off-axis %g, want %g", c.facing, got, c.want)
		}
	}
}

func TestAngleBetweenIgnoresHeight(t *testing.T) {
	// A target above the source should not change the horizontal
	// off-axis angle.
	got := AngleBetweenDeg(HeadingVec(0), Vec3{Z: 1.65}, Vec3{X: 3, Z: 0.74})
	if math.Abs(got) > 1e-9 {
		t.Errorf("height leaked into horizontal angle: %g", got)
	}
}

func TestAngleBetweenDegenerate(t *testing.T) {
	if got := AngleBetweenDeg(HeadingVec(0), Vec3{}, Vec3{}); got != 0 {
		t.Errorf("coincident points: %g, want 0", got)
	}
}
