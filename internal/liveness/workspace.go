package liveness

import (
	"sync"

	"headtalk/internal/dsp"
	"headtalk/internal/ml"
)

// Workspace is the reusable state of both liveness gates: the spectral
// front end's 16 kHz waveform, standardized copy, frame, spectrum and
// filterbank frames; the ConvNet's activations; and the fingerprint's
// Welch PSD, channel average and band profile. Every buffer grows to
// the largest capture seen and is then reused, so a warm Workspace
// scores both gates without allocating. The zero value is ready to
// use; a Workspace must not be used from two goroutines at once.
//
// Detector.Score and ArrayFingerprint.Score/Check run on a Workspace
// from a package pool; a serving worker holds its own and calls the
// With variants.
type Workspace struct {
	// Spectral front end.
	wav, z, buf, pow, col []float64
	spec                  []complex128
	frames                ml.Matrix
	net                   ml.ConvNetWorkspace

	// Array fingerprint.
	psd            dsp.PSDWorkspace
	chPSD, acc, bp []float64
}

// workspaces backs the convenience scoring methods.
var workspaces = sync.Pool{New: func() any { return new(Workspace) }}
