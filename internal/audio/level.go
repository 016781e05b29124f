package audio

import "math"

// Reference pressure conventions for the simulated sound field. We map
// digital full scale so that an RMS of 1.0 corresponds to 94 dB SPL
// (1 Pa), the standard microphone calibration point. Speech at 70 dB
// SPL — the paper's collection loudness — then has an RMS around 0.06.
const fullScaleSPL = 94.0

// SPLToRMS converts a sound pressure level in dB SPL to the digital RMS
// amplitude under the 94 dB = 1.0 convention.
func SPLToRMS(spl float64) float64 {
	return math.Pow(10, (spl-fullScaleSPL)/20)
}

// DBToGain converts a relative level in dB to a linear gain factor.
func DBToGain(db float64) float64 { return math.Pow(10, db/20) }

// SetSPL scales x in place so its RMS corresponds to the target dB SPL.
// Silent signals are returned unchanged.
func SetSPL(x []float64, spl float64) {
	var acc float64
	for _, v := range x {
		acc += v * v
	}
	if acc == 0 {
		return
	}
	rms := math.Sqrt(acc / float64(len(x)))
	g := SPLToRMS(spl) / rms
	for i := range x {
		x[i] *= g
	}
}
