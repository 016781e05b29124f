// Package eval reproduces every table and figure of the paper's
// evaluation section (§IV, §V) on the synthetic corpus. Each
// experiment is a method on Runner returning a formatted Table;
// cmd/experiments drives the full suite and bench_test.go exposes one
// benchmark per table/figure.
package eval

import (
	"fmt"
	"io"
	"sort"

	"headtalk/internal/dataset"
	"headtalk/internal/ml"
	"headtalk/internal/orientation"
)

// Options configures a Runner.
type Options struct {
	// Seed namespaces all corpus generation and training randomness.
	Seed uint64
	// Scale selects reduced or paper-sized corpora.
	Scale dataset.Scale
	// Progress, when non-nil, receives generation progress lines.
	Progress io.Writer
}

// Runner generates corpora on demand (cached per experiment key) and
// runs the paper's experiments.
type Runner struct {
	opts   Options
	gen    *dataset.Generator
	genWav *dataset.Generator
	cache  map[string][]*dataset.Sample
}

// NewRunner returns a runner with the given options.
func NewRunner(opts Options) *Runner {
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	gen := dataset.NewGenerator(opts.Seed)
	genWav := dataset.NewGenerator(opts.Seed)
	genWav.KeepWaveforms = true
	return &Runner{
		opts:   opts,
		gen:    gen,
		genWav: genWav,
		cache:  make(map[string][]*dataset.Sample),
	}
}

// progressf prints progress when enabled.
func (r *Runner) progressf(format string, args ...any) {
	if r.opts.Progress != nil {
		fmt.Fprintf(r.opts.Progress, format+"\n", args...)
	}
}

// samples generates (or returns cached) samples for a keyed condition
// list. wav selects the waveform-keeping generator.
func (r *Runner) samples(key string, conds []dataset.Condition, wav bool) ([]*dataset.Sample, error) {
	cacheKey := key
	if wav {
		cacheKey += "|wav"
	}
	if s, ok := r.cache[cacheKey]; ok {
		return s, nil
	}
	gen := r.gen
	if wav {
		gen = r.genWav
	}
	r.progressf("generating %s: %d samples...", key, len(conds))
	out := make([]*dataset.Sample, 0, len(conds))
	for i, c := range conds {
		s, err := gen.Generate(c)
		if err != nil {
			return nil, fmt.Errorf("eval: generating %s sample %d: %w", key, i, err)
		}
		out = append(out, s)
		if (i+1)%200 == 0 {
			r.progressf("  %s: %d/%d", key, i+1, len(conds))
		}
	}
	r.cache[cacheKey] = out
	return out, nil
}

// singleCellReps returns the repetition count for single-cell
// experiments, where the reduced scale can afford extra repetitions to
// stabilize accuracy estimates.
func (r *Runner) singleCellReps() int {
	switch r.opts.Scale {
	case dataset.ScalePaper:
		return 2
	case dataset.ScaleTiny:
		return 2
	default:
		return 3
	}
}

// --- shared condition builders ---

// tableIIIConds is the Table III collection: lab, D2, "Computer", the
// 16-angle grid including ±75°.
func (r *Runner) tableIIIConds() []dataset.Condition {
	radials, distances, _ := gridFor(r.opts.Scale)
	reps := r.singleCellReps()
	var out []dataset.Condition
	for sess := 1; sess <= dataset.Sessions; sess++ {
		for _, rad := range radials {
			for _, dist := range distances {
				for _, a := range dataset.AnglesWithBorderline {
					for rep := 1; rep <= reps; rep++ {
						out = append(out, dataset.Condition{
							Session: sess, RadialDeg: rad, Distance: dist,
							AngleDeg: a, Rep: rep,
						})
					}
				}
			}
		}
	}
	return out
}

// gridFor mirrors dataset.Scale.grid for eval-local specs.
func gridFor(s dataset.Scale) (radials, distances []float64, reps int) {
	switch s {
	case dataset.ScalePaper:
		return dataset.Radials, dataset.Distances, 2
	case dataset.ScaleTiny:
		return []float64{0}, []float64{3}, 1
	default:
		return []float64{0}, dataset.Distances, 1
	}
}

// --- shared training helpers ---

// labeled filters samples to a definition's training arcs, returning
// features and labels.
func labeled(samples []*dataset.Sample, def orientation.Definition) (x [][]float64, y []int) {
	for _, s := range samples {
		if l, ok := def.Label(s.Cond.AngleDeg); ok {
			x = append(x, s.Features)
			y = append(y, l)
		}
	}
	return x, y
}

// bySession splits samples into per-session groups.
func bySession(samples []*dataset.Sample) map[int][]*dataset.Sample {
	out := make(map[int][]*dataset.Sample)
	for _, s := range samples {
		out[s.Cond.Session] = append(out[s.Cond.Session], s)
	}
	return out
}

// filter returns the samples matching pred.
func filter(samples []*dataset.Sample, pred func(*dataset.Sample) bool) []*dataset.Sample {
	var out []*dataset.Sample
	for _, s := range samples {
		if pred(s) {
			out = append(out, s)
		}
	}
	return out
}

// trainOn trains a Definition-labeled SVM model on samples.
func (r *Runner) trainOn(samples []*dataset.Sample, def orientation.Definition) (*orientation.Model, error) {
	x, y := labeled(samples, def)
	if len(x) == 0 {
		return nil, fmt.Errorf("eval: no samples inside training arcs of %s", def.Name)
	}
	return orientation.Train(x, y, orientation.ModelConfig{Seed: r.opts.Seed})
}

// crossSession trains on each session and tests on the other with the
// given definition, returning the per-direction metrics.
func (r *Runner) crossSession(samples []*dataset.Sample, def orientation.Definition) ([]ml.BinaryMetrics, error) {
	groups := bySession(samples)
	sessions := make([]int, 0, len(groups))
	for s := range groups {
		sessions = append(sessions, s)
	}
	sort.Ints(sessions)
	if len(sessions) < 2 {
		return nil, fmt.Errorf("eval: cross-session evaluation needs >= 2 sessions, have %d", len(sessions))
	}
	var out []ml.BinaryMetrics
	for _, trainSess := range sessions {
		model, err := r.trainOn(groups[trainSess], def)
		if err != nil {
			return nil, err
		}
		var testX [][]float64
		var testY []int
		for _, testSess := range sessions {
			if testSess == trainSess {
				continue
			}
			x, y := labeled(groups[testSess], def)
			testX = append(testX, x...)
			testY = append(testY, y...)
		}
		m, err := model.Evaluate(testX, testY)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// meanAccuracy averages Accuracy over metric sets.
func meanAccuracy(ms []ml.BinaryMetrics) float64 {
	if len(ms) == 0 {
		return 0
	}
	var acc float64
	for _, m := range ms {
		acc += m.Accuracy()
	}
	return acc / float64(len(ms))
}

// meanF1 averages F1 over metric sets.
func meanF1(ms []ml.BinaryMetrics) float64 {
	if len(ms) == 0 {
		return 0
	}
	var f float64
	for _, m := range ms {
		f += m.F1()
	}
	return f / float64(len(ms))
}

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
