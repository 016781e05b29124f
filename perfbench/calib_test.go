package main

import "testing"

// kernelChecksum pins the calibration kernel's output. refKernelMS is
// only meaningful for this exact computation: if the kernel changes,
// this fails, and the reference constant must be re-measured with it.
const kernelChecksum = 0x88c9a50be9da5dfd

func TestCalibKernelChecksum(t *testing.T) {
	k := newCalibKernel()
	if got := k.checksum(); got != kernelChecksum {
		t.Fatalf("calibration kernel checksum %#x, pinned %#x: the kernel changed; re-measure refKernelMS (%v ms) with it and update both", got, uint64(kernelChecksum), refKernelMS)
	}
	// The checksum must not depend on how often the kernel has run.
	if a, b := k.checksum(), k.checksum(); a != b {
		t.Fatalf("checksum not repeatable: %#x then %#x", a, b)
	}
}
