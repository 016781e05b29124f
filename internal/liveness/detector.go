package liveness

import (
	"errors"
	"fmt"

	"headtalk/internal/audio"
	"headtalk/internal/ml"
)

// Label values for liveness classification.
const (
	LabelSpoof = 0 // mechanical speaker
	LabelHuman = 1 // live human
)

// Detector classifies utterances as live-human or replayed. Train it
// once on a spoof corpus (the ASVspoof-like pretraining of §IV-A1),
// then Adapt it incrementally to new replay hardware.
type Detector struct {
	net *ml.ConvNet
}

// NewDetector returns a detector with the default network
// architecture and the given training seed.
func NewDetector(seed uint64) *Detector {
	cfg := ml.DefaultConvNetConfig(NumFilters)
	cfg.Seed = seed
	return &Detector{net: ml.NewConvNet(cfg)}
}

// Train fits the network on waveforms at sample rate fs with labels
// (LabelHuman / LabelSpoof).
func (d *Detector) Train(waveforms [][]float64, fs float64, labels []int) error {
	if len(waveforms) != len(labels) {
		return fmt.Errorf("liveness: %d waveforms vs %d labels", len(waveforms), len(labels))
	}
	x, y, err := d.prepare(waveforms, fs, labels)
	if err != nil {
		return err
	}
	return d.net.Fit(x, y)
}

// Adapt continues training on new data for the given number of epochs
// without resetting weights — the incremental learning step the paper
// uses to recover accuracy on unseen replay devices (98.68% accuracy /
// 2.58% EER after 10 epochs on 20% new data).
func (d *Detector) Adapt(waveforms [][]float64, fs float64, labels []int, epochs int) error {
	x, y, err := d.prepare(waveforms, fs, labels)
	if err != nil {
		return err
	}
	return d.net.ContinueFit(x, y, epochs)
}

func (d *Detector) prepare(waveforms [][]float64, fs float64, labels []int) ([][][]float64, []int, error) {
	x := make([][][]float64, 0, len(waveforms))
	y := make([]int, 0, len(labels))
	for i, w := range waveforms {
		frames, err := Frames(w, fs)
		if err != nil {
			return nil, nil, fmt.Errorf("liveness: sample %d: %w", i, err)
		}
		x = append(x, frames)
		y = append(y, labels[i])
	}
	return x, y, nil
}

// Score returns the probability that the waveform is live human
// speech.
func (d *Detector) Score(waveform []float64, fs float64) (float64, error) {
	w := workspaces.Get().(*Workspace)
	defer workspaces.Put(w)
	return d.ScoreWith(w, waveform, fs)
}

// ScoreWith is Score on the caller's workspace. A waveform too short
// to score is an *audio.ErrBadInput with reason too_short.
func (d *Detector) ScoreWith(w *Workspace, waveform []float64, fs float64) (float64, error) {
	frames, err := w.Frames(waveform, fs)
	if err != nil {
		return 0, err
	}
	p, err := d.net.PredictProbaWith(&w.net, frames)
	if errors.Is(err, ml.ErrSequenceTooShort) {
		return 0, &audio.ErrBadInput{Reason: audio.BadTooShort, Detail: "liveness: " + err.Error()}
	}
	return p, err
}

// Evaluate scores a labeled set and returns the EER with its threshold
// plus accuracy at the 0.5 operating point.
func (d *Detector) Evaluate(waveforms [][]float64, fs float64, labels []int) (eer, threshold, accuracy float64, err error) {
	scores := make([]float64, len(waveforms))
	preds := make([]int, len(waveforms))
	for i, w := range waveforms {
		s, serr := d.Score(w, fs)
		if serr != nil {
			return 0, 0, 0, fmt.Errorf("liveness: scoring sample %d: %w", i, serr)
		}
		scores[i] = s
		if s >= 0.5 {
			preds[i] = LabelHuman
		} else {
			preds[i] = LabelSpoof
		}
	}
	eer, threshold, err = ml.EER(scores, labels)
	if err != nil {
		return 0, 0, 0, err
	}
	m, err := ml.EvaluateBinary(labels, preds)
	if err != nil {
		return 0, 0, 0, err
	}
	return eer, threshold, m.Accuracy(), nil
}
