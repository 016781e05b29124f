// Package geom provides the small amount of 3-D geometry used by the
// room simulator and microphone-array models: vectors, azimuth angles
// and rotations in the horizontal plane.
package geom

import "math"

// Vec3 is a point or direction in meters. X and Y span the horizontal
// plane; Z is height.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Deg2Rad converts degrees to radians.
func Deg2Rad(d float64) float64 { return d * math.Pi / 180 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(r float64) float64 { return r * 180 / math.Pi }

// NormalizeDeg maps an angle in degrees to (-180, 180].
func NormalizeDeg(d float64) float64 {
	d = math.Mod(d, 360)
	if d > 180 {
		d -= 360
	}
	if d <= -180 {
		d += 360
	}
	return d
}

// HeadingVec returns the unit direction in the horizontal plane for an
// azimuth given in degrees, measured counterclockwise from +X.
func HeadingVec(azimuthDeg float64) Vec3 {
	r := Deg2Rad(azimuthDeg)
	return Vec3{X: math.Cos(r), Y: math.Sin(r)}
}

// Azimuth returns the horizontal-plane angle of v in degrees in
// (-180, 180], measured counterclockwise from +X. The zero vector maps
// to 0.
func Azimuth(v Vec3) float64 {
	if v.X == 0 && v.Y == 0 {
		return 0
	}
	return Rad2Deg(math.Atan2(v.Y, v.X))
}

// AngleBetweenDeg returns the unsigned horizontal-plane angle in
// degrees [0, 180] between direction dir and the direction from `from`
// toward `to`. This is the "off-axis" angle used by the directivity
// model: 0 means the source is pointed straight at the target.
func AngleBetweenDeg(dir Vec3, from, to Vec3) float64 {
	look := to.Sub(from)
	look.Z = 0
	dir.Z = 0
	ln, dn := look.Norm(), dir.Norm()
	if ln == 0 || dn == 0 {
		return 0
	}
	cos := dir.Dot(look) / (ln * dn)
	if cos > 1 {
		cos = 1
	}
	if cos < -1 {
		cos = -1
	}
	return Rad2Deg(math.Acos(cos))
}
