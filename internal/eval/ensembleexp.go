package eval

import (
	"fmt"

	"headtalk/internal/audio"
	"headtalk/internal/dataset"
	"headtalk/internal/liveness"
)

// ensembleCounts is the raw outcome of the ensemble experiment — kept
// separate from the Table so the registry's acceptance criterion
// ("fused ensemble strictly beats the spectral gate alone") is
// assertable in tests without parsing formatted cells.
type ensembleCounts struct {
	liveTotal, replayTotal int
	// spectral-alone and fused verdict errors
	spectralFalseReject, spectralFalseAccept int
	ensembleFalseReject, ensembleFalseAccept int
}

func (c ensembleCounts) spectralAccuracy() float64 {
	total := c.liveTotal + c.replayTotal
	if total == 0 {
		return 0
	}
	return 1 - float64(c.spectralFalseReject+c.spectralFalseAccept)/float64(total)
}

func (c ensembleCounts) ensembleAccuracy() float64 {
	total := c.liveTotal + c.replayTotal
	if total == 0 {
		return 0
	}
	return 1 - float64(c.ensembleFalseReject+c.ensembleFalseAccept)/float64(total)
}

// ensembleGrid sizes the experiment by scale: training pairs for the
// spectral detector, enrollment captures for the fingerprint, and test
// repetitions per (class, distance) cell.
func ensembleGrid(s dataset.Scale) (trainPairs, enrollCaps, testReps int) {
	switch s {
	case dataset.ScalePaper:
		return 12, 12, 4
	case dataset.ScaleTiny:
		return 4, 9, 2
	default:
		return 8, 12, 3
	}
}

// runLivenessEnsemble trains both gates under the replay-attack
// protocol and scores the held-out set, returning raw counts.
//
// The protocol is deliberately adversarial to the spectral gate: it
// trains ONLY on Smart TV replays, then faces replay devices it never
// saw (Sony SRS-X5, Galaxy S21 Ultra). The array fingerprint is
// device-agnostic — it enrolls the array's own live coloration — so
// the fused gate holds exactly where the spectral one generalizes
// worst.
func (r *Runner) runLivenessEnsemble() (ensembleCounts, error) {
	var c ensembleCounts
	trainPairs, enrollCaps, testReps := ensembleGrid(r.opts.Scale)

	// Spectral detector: live vs Smart TV only.
	// Training stays narrow on purpose — one replay device, one
	// distance — so the detector's decision boundary is honest about
	// what a single-device enrollment can know. The test set then
	// probes exactly the generalization gap the fingerprint covers.
	var trainConds []dataset.Condition
	for i := 0; i < trainPairs; i++ {
		base := dataset.Condition{
			Distance: dataset.Distances[0],
			AngleDeg: 0, Rep: i + 1,
		}
		replayed := base
		replayed.Replay = "Smart TV"
		trainConds = append(trainConds, base, replayed)
	}
	train, err := r.samples("ensemble-train-tv", trainConds, true)
	if err != nil {
		return c, err
	}
	ws := make([][]float64, len(train))
	ys := make([]int, len(train))
	for i, s := range train {
		ws[i] = s.Waveform
		ys[i] = dataset.LivenessLabel(s.Cond)
	}
	det := liveness.NewDetector(r.opts.Seed)
	r.progressf("training spectral detector on %d Smart-TV-only samples...", len(ws))
	if err := det.Train(ws, dataset.SampleWaveformRate, ys); err != nil {
		return c, fmt.Errorf("eval: ensemble spectral training: %w", err)
	}

	// Operating point: the spectral threshold is calibrated to the EER
	// on validation data from the SAME enrollment protocol (fresh live
	// + Smart TV pairs). That is all a deployment can calibrate on —
	// and exactly why unseen replay hardware slips through the lone
	// spectral gate at this threshold.
	var valConds []dataset.Condition
	for i := 0; i < trainPairs; i++ {
		base := dataset.Condition{
			Distance: dataset.Distances[0],
			AngleDeg: 0, Rep: 50 + i,
		}
		replayed := base
		replayed.Replay = "Smart TV"
		valConds = append(valConds, base, replayed)
	}
	val, err := r.samples("ensemble-val-tv", valConds, true)
	if err != nil {
		return c, err
	}
	valW := make([][]float64, len(val))
	valY := make([]int, len(val))
	for i, s := range val {
		valW[i] = s.Waveform
		valY[i] = dataset.LivenessLabel(s.Cond)
	}
	_, thr, _, err := det.Evaluate(valW, dataset.SampleWaveformRate, valY)
	if err != nil {
		return c, fmt.Errorf("eval: ensemble threshold calibration: %w", err)
	}
	r.progressf("spectral EER threshold: %.3f", thr)

	// Array fingerprint: the array's live coloration.
	genCap := dataset.NewGenerator(r.opts.Seed + 0xE17)
	recs := make([]*audio.Recording, 0, enrollCaps)
	for i := 0; i < enrollCaps; i++ {
		rec, err := dataset.CaptureRecording(genCap, dataset.Condition{
			Distance: dataset.Distances[i%len(dataset.Distances)],
			AngleDeg: 0, Rep: i + 1,
		})
		if err != nil {
			return c, fmt.Errorf("eval: ensemble fingerprint enrollment: %w", err)
		}
		recs = append(recs, rec)
	}
	// A tight enrollment (1.5 dB tolerance floor, sharp score decay)
	// is what makes the gate bite: the default full-band tolerances
	// are wide enough that a good loudspeaker's coloration hides
	// inside them.
	fp, err := liveness.TrainArrayFingerprint(recs, liveness.FingerprintConfig{
		ToleranceFloorDB: 1.5,
		Softness:         1,
	})
	if err != nil {
		return c, fmt.Errorf("eval: ensemble fingerprint training: %w", err)
	}

	// Held-out set: unseen live captures plus replays through devices
	// the spectral detector never trained on.
	genTest := dataset.NewGenerator(r.opts.Seed + 0xE18)
	score := func(cond dataset.Condition, live bool) error {
		rec, err := dataset.CaptureRecording(genTest, cond)
		if err != nil {
			return err
		}
		mono := rec.Mono()
		spScore, err := det.Score(mono, rec.SampleRate)
		if err != nil {
			return err
		}
		// The fused gate is the served AND: the raw capture must match
		// the array fingerprint and the mono mix must score live.
		fpOK, _, err := fp.Check(rec)
		if err != nil {
			return err
		}
		spLive := spScore >= thr
		fused := fpOK && spLive
		if live {
			c.liveTotal++
			if !spLive {
				c.spectralFalseReject++
			}
			if !fused {
				c.ensembleFalseReject++
			}
		} else {
			c.replayTotal++
			if spLive {
				c.spectralFalseAccept++
			}
			if fused {
				c.ensembleFalseAccept++
			}
		}
		return nil
	}
	unseen := []string{"Sony SRS-X5", "Samsung Galaxy S21 Ultra"}
	r.progressf("scoring held-out live + unseen-device replays...")
	for _, dist := range dataset.Distances {
		for rep := 1; rep <= testReps; rep++ {
			base := dataset.Condition{Distance: dist, AngleDeg: 0, Rep: 100 + rep}
			if err := score(base, true); err != nil {
				return c, fmt.Errorf("eval: ensemble live test: %w", err)
			}
			for _, dev := range unseen {
				attack := base
				attack.Replay = dev
				if err := score(attack, false); err != nil {
					return c, fmt.Errorf("eval: ensemble replay test: %w", err)
				}
			}
		}
	}
	return c, nil
}

// LivenessEnsemble reproduces the fused-gate replay-attack protocol:
// the spectral detector trains only on Smart TV replays, then both the
// lone spectral gate and the fused spectral+fingerprint ensemble face
// live captures and replays through unseen loudspeakers.
func (r *Runner) LivenessEnsemble() (*Table, error) {
	c, err := r.runLivenessEnsemble()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ensemble",
		Title:  "extension: fused liveness ensemble vs unseen replay devices",
		Header: []string{"Gate", "Accuracy", "Replay accepted", "Live rejected"},
	}
	t.AddRow("spectral alone", pct(c.spectralAccuracy()),
		fmt.Sprintf("%d/%d", c.spectralFalseAccept, c.replayTotal),
		fmt.Sprintf("%d/%d", c.spectralFalseReject, c.liveTotal))
	t.AddRow("fused ensemble", pct(c.ensembleAccuracy()),
		fmt.Sprintf("%d/%d", c.ensembleFalseAccept, c.replayTotal),
		fmt.Sprintf("%d/%d", c.ensembleFalseReject, c.liveTotal))
	t.AddNote("spectral gate trained on Smart TV replays only; test replays use Sony SRS-X5 and Galaxy S21 Ultra")
	t.AddNote("criterion: the fused ensemble strictly beats the spectral gate alone on this replay-attack set")
	return t, nil
}
