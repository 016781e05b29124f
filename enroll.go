package headtalk

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"headtalk/internal/audio"
	"headtalk/internal/dataset"
	"headtalk/internal/liveness"
	"headtalk/internal/orientation"
	"headtalk/internal/registry"
)

// EnrollmentOptions controls Enroll, the convenience that trains both
// HeadTalk gates from synthetic data. Zero values select the paper's
// defaults (lab room, device D2, "Computer").
type EnrollmentOptions struct {
	Seed uint64
	// Room, Device and Word select the enrollment environment.
	Room, Device, Word string
	// OrientationReps is the number of enrollment repetitions per
	// (angle, distance); the default 2 yields ~30 samples per class,
	// which Fig. 11 shows is already past the accuracy knee.
	OrientationReps int
	// LivenessPairs is the number of live/replayed utterance pairs
	// for the liveness detector (default 36).
	LivenessPairs int
	// FingerprintCaptures is the number of live multi-channel captures
	// the array-fingerprint gate enrolls from (default 6, minimum 2).
	FingerprintCaptures int
	// SkipLiveness trains only the orientation gate (and skips the
	// array fingerprint, which is the other half of the liveness
	// ensemble).
	SkipLiveness bool
	// Progress, when non-nil, receives progress lines.
	Progress io.Writer
}

// Enrollment is the result of Enroll.
type Enrollment struct {
	Orientation *OrientationModel
	Liveness    *LivenessDetector
	// ArrayFingerprint is the enrolled array-signature liveness gate
	// (the second model of the fused ensemble); nil when liveness
	// enrollment was skipped.
	ArrayFingerprint *ArrayFingerprint
}

// Enroll generates a synthetic enrollment corpus and trains the
// orientation model (and, unless skipped, the liveness detector and
// the array fingerprint).
// This is the "first day of setup" flow: the paper's user speaks the
// wake word at marked angles; here the simulator does.
func Enroll(opts EnrollmentOptions) (*Enrollment, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.OrientationReps <= 0 {
		opts.OrientationReps = 2
	}
	if opts.LivenessPairs <= 0 {
		opts.LivenessPairs = 36
	}
	if opts.FingerprintCaptures <= 0 {
		opts.FingerprintCaptures = 6
	}
	if opts.FingerprintCaptures < 2 {
		opts.FingerprintCaptures = 2
	}
	progress := func(format string, args ...any) {
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, format+"\n", args...)
		}
	}

	gen := dataset.NewGenerator(opts.Seed)
	def := orientation.Definition4

	// Orientation enrollment: Definition-4 angles at the three
	// distances.
	angles := append(append([]float64{}, def.Facing...), def.NonFacing...)
	var x [][]float64
	var y []int
	total := len(angles) * len(dataset.Distances) * opts.OrientationReps
	progress("enrolling orientation model: %d utterances...", total)
	done := 0
	for _, a := range angles {
		for _, dist := range dataset.Distances {
			for rep := 1; rep <= opts.OrientationReps; rep++ {
				s, err := gen.Generate(dataset.Condition{
					Room: opts.Room, Device: opts.Device, Word: opts.Word,
					Distance: dist, AngleDeg: a, Rep: rep,
				})
				if err != nil {
					return nil, fmt.Errorf("headtalk: enrollment capture: %w", err)
				}
				label, _ := def.Label(a)
				x = append(x, s.Features)
				y = append(y, label)
				done++
				if done%20 == 0 {
					progress("  orientation: %d/%d", done, total)
				}
			}
		}
	}
	model, err := orientation.Train(x, y, orientation.ModelConfig{Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("headtalk: training orientation model: %w", err)
	}
	out := &Enrollment{Orientation: model}
	if opts.SkipLiveness {
		return out, nil
	}

	// Liveness enrollment: paired live/replayed captures across
	// distances and replay devices.
	genWav := dataset.NewGenerator(opts.Seed + 1)
	genWav.KeepWaveforms = true
	profiles := []string{"Sony SRS-X5", "Samsung Galaxy S21 Ultra", "Smart TV"}
	var waveforms [][]float64
	var labels []int
	progress("enrolling liveness detector: %d utterance pairs...", opts.LivenessPairs)
	for i := 0; i < opts.LivenessPairs; i++ {
		dist := dataset.Distances[i%len(dataset.Distances)]
		base := dataset.Condition{
			Room: opts.Room, Device: opts.Device, Word: opts.Word,
			Distance: dist, AngleDeg: 0, Rep: i + 1,
		}
		human, err := genWav.Generate(base)
		if err != nil {
			return nil, fmt.Errorf("headtalk: liveness enrollment: %w", err)
		}
		replayCond := base
		replayCond.Replay = profiles[i%len(profiles)]
		replayed, err := genWav.Generate(replayCond)
		if err != nil {
			return nil, fmt.Errorf("headtalk: liveness enrollment: %w", err)
		}
		waveforms = append(waveforms, human.Waveform, replayed.Waveform)
		labels = append(labels, liveness.LabelHuman, liveness.LabelSpoof)
		if (i+1)%10 == 0 {
			progress("  liveness: %d/%d pairs", i+1, opts.LivenessPairs)
		}
	}
	det := liveness.NewDetector(opts.Seed)
	if err := det.Train(waveforms, dataset.SampleWaveformRate, labels); err != nil {
		return nil, fmt.Errorf("headtalk: training liveness detector: %w", err)
	}
	out.Liveness = det

	// Array-fingerprint enrollment: the long-term spectral signature of
	// this array at this placement, learned from live multi-channel
	// captures (varying distance and repetition so the per-band
	// tolerances reflect real utterance-to-utterance spread).
	genCap := dataset.NewGenerator(opts.Seed + 2)
	progress("enrolling array fingerprint: %d captures...", opts.FingerprintCaptures)
	var caps []*audio.Recording
	for i := 0; i < opts.FingerprintCaptures; i++ {
		rec, err := dataset.CaptureRecording(genCap, dataset.Condition{
			Room: opts.Room, Device: opts.Device, Word: opts.Word,
			Distance: dataset.Distances[i%len(dataset.Distances)],
			AngleDeg: 0, Rep: i + 1,
		})
		if err != nil {
			return nil, fmt.Errorf("headtalk: fingerprint enrollment: %w", err)
		}
		caps = append(caps, rec)
	}
	fp, err := liveness.TrainArrayFingerprint(caps, liveness.FingerprintConfig{})
	if err != nil {
		return nil, fmt.Errorf("headtalk: training array fingerprint: %w", err)
	}
	out.ArrayFingerprint = fp
	return out, nil
}

// models views the enrollment's trained gates as a model set.
func (e *Enrollment) models() *registry.ModelSet {
	return &registry.ModelSet{Orientation: e.Orientation, Liveness: e.Liveness, ArrayFingerprint: e.ArrayFingerprint}
}

// Registry seeds a versioned model registry with the enrollment's
// trained gates (each installed as the active version 1..n) — the
// bridge from the one-shot enrollment flow to the registry-managed
// lifecycle.
func (e *Enrollment) Registry(cfg RegistryConfig) (*Registry, error) {
	reg := registry.New(cfg)
	set := e.models()
	for _, k := range registry.Kinds() {
		if m := set.Model(k); m != nil {
			if _, err := reg.Install(k, m); err != nil {
				return nil, fmt.Errorf("headtalk: installing %s model: %w", k, err)
			}
		}
	}
	return reg, nil
}

// SaveTo persists the enrollment into dir: orientation.json plus, when
// the liveness gates were trained, liveness.json and fingerprint.json.
// Every file is a registry model envelope — the same checksummed,
// byte-stable serialization cluster snapshots and the model registry
// use — written atomically (temp file + fsync + rename), so a crash
// mid-save can never leave a torn model on disk.
func (e *Enrollment) SaveTo(dir string) error {
	if e.Orientation == nil {
		return fmt.Errorf("headtalk: enrollment has no orientation model")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("headtalk: creating %s: %w", dir, err)
	}
	set := e.models()
	for _, k := range registry.Kinds() {
		m := set.Model(k)
		if m == nil {
			continue
		}
		doc, err := registry.EncodeModel(k, m)
		if err != nil {
			return fmt.Errorf("headtalk: serializing %s model: %w", k, err)
		}
		if err := registry.WriteEnvelopeFile(modelPath(dir, k), registry.Seal(k, 0, doc)); err != nil {
			return fmt.Errorf("headtalk: writing %s model: %w", k, err)
		}
	}
	return nil
}

// modelPath names kind k's file in an enrollment directory.
func modelPath(dir string, k registry.Kind) string {
	return filepath.Join(dir, string(k)+".json")
}

// LoadEnrollment restores an enrollment saved with SaveTo. Every file
// must be a sealed model envelope of its kind: a file without one (the
// bare model JSON of releases before envelopes) is refused with
// ErrModelCorrupt, never loaded unverified. A missing liveness.json or
// fingerprint.json leaves that gate nil (orientation-only deployments
// are valid). Damage surfaces as typed errors: ErrModelCorrupt /
// ErrModelVersion for envelope-level problems, the model loaders'
// sentinels for blob-level ones.
func LoadEnrollment(dir string) (*Enrollment, error) {
	var set registry.ModelSet
	for _, k := range registry.Kinds() {
		env, err := registry.ReadEnvelopeFile(modelPath(dir, k))
		if errors.Is(err, fs.ErrNotExist) && k != registry.KindOrientation {
			continue
		}
		if err == nil && env.Kind != string(k) {
			err = fmt.Errorf("%w: %s.json holds a %q model", registry.ErrModelCorrupt, k, env.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("headtalk: loading %s model: %w", k, err)
		}
		m, err := registry.DecodeModel(k, env.Payload)
		if err != nil {
			return nil, err
		}
		set.SetModel(m)
	}
	return &Enrollment{Orientation: set.Orientation, Liveness: set.Liveness, ArrayFingerprint: set.ArrayFingerprint}, nil
}
