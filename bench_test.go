// Benchmarks: one per paper table/figure (regenerating the experiment
// at the tiny corpus scale; run cmd/experiments for the full-size
// tables), plus unit benchmarks for the pipeline stages including the
// paper's §IV-B15 runtime measurements.
package headtalk

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"headtalk/internal/audio"
	"headtalk/internal/dataset"
	"headtalk/internal/dsp"
	"headtalk/internal/eval"
	"headtalk/internal/features"
	"headtalk/internal/liveness"
	"headtalk/internal/ml"
	"headtalk/internal/orientation"
	"headtalk/internal/speech"
	"headtalk/internal/srp"
	"headtalk/internal/stream"
	"headtalk/internal/va"
)

// benchRunner is shared across experiment benchmarks so corpus
// generation is amortized through the runner's sample cache.
var (
	benchRunnerOnce sync.Once
	benchRunnerInst *eval.Runner
)

func benchRunner() *eval.Runner {
	benchRunnerOnce.Do(func() {
		benchRunnerInst = eval.NewRunner(eval.Options{Seed: 42, Scale: dataset.ScaleTiny})
	})
	return benchRunnerInst
}

// benchExperiment reruns a registered experiment per iteration. The
// first iteration includes corpus generation; later iterations measure
// the training/evaluation work on cached samples.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	e, err := eval.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	r := benchRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(r); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper table/figure ---

func BenchmarkFig3Spectra(b *testing.B)          { benchExperiment(b, "fig3") }
func BenchmarkFig6GCCSRPCurves(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkLivenessEER(b *testing.B)          { benchExperiment(b, "liveness") }
func BenchmarkTable3Definitions(b *testing.B)    { benchExperiment(b, "definitions") }
func BenchmarkFig10PerAngle(b *testing.B)        { benchExperiment(b, "perangle") }
func BenchmarkClassifierComparison(b *testing.B) { benchExperiment(b, "classifiers") }
func BenchmarkFig11TrainingSize(b *testing.B)    { benchExperiment(b, "trainsize") }
func BenchmarkDistance(b *testing.B)             { benchExperiment(b, "distance") }
func BenchmarkFig12WakeWords(b *testing.B)       { benchExperiment(b, "wakewords") }
func BenchmarkFig13Devices(b *testing.B)         { benchExperiment(b, "devices") }
func BenchmarkFig14Environments(b *testing.B)    { benchExperiment(b, "environments") }
func BenchmarkTable4MicCount(b *testing.B)       { benchExperiment(b, "miccount") }
func BenchmarkPlacement(b *testing.B)            { benchExperiment(b, "placement") }
func BenchmarkCrossEnvironment(b *testing.B)     { benchExperiment(b, "crossenv") }
func BenchmarkFig15Temporal(b *testing.B)        { benchExperiment(b, "temporal") }
func BenchmarkAmbientNoise(b *testing.B)         { benchExperiment(b, "noise") }
func BenchmarkSitting(b *testing.B)              { benchExperiment(b, "sitting") }
func BenchmarkLoudness(b *testing.B)             { benchExperiment(b, "loudness") }
func BenchmarkSurroundingObjects(b *testing.B)   { benchExperiment(b, "objects") }
func BenchmarkFig16CrossUser(b *testing.B)       { benchExperiment(b, "crossuser") }
func BenchmarkDoVBaseline(b *testing.B)          { benchExperiment(b, "dov") }
func BenchmarkUserStudy(b *testing.B)            { benchExperiment(b, "userstudy") }

// --- ablation benchmarks (DESIGN.md design-choice index) ---

func BenchmarkAblationPHATWeighting(b *testing.B) { benchExperiment(b, "ablation-phat") }
func BenchmarkAblationFeatureGroups(b *testing.B) { benchExperiment(b, "ablation-features") }

// --- extension experiments ---

func BenchmarkExtMovingSpeaker(b *testing.B)      { benchExperiment(b, "moving") }
func BenchmarkExtDeviceSelection(b *testing.B)    { benchExperiment(b, "deviceselect") }
func BenchmarkExtOverlappingTalkers(b *testing.B) { benchExperiment(b, "overlap") }
func BenchmarkExtTrajectories(b *testing.B)       { benchExperiment(b, "trajectory") }
func BenchmarkExtArrayFusion(b *testing.B)        { benchExperiment(b, "fusion") }
func BenchmarkExtLivenessEnsemble(b *testing.B)   { benchExperiment(b, "ensemble") }

// BenchmarkAblationSimImageOrder measures capture cost at image orders
// 1 and 2 (the simulator-fidelity tradeoff DESIGN.md calls out).
func BenchmarkAblationSimImageOrder(b *testing.B) {
	for _, order := range []int{1, 2} {
		b.Run(map[int]string{1: "order1", 2: "order2"}[order], func(b *testing.B) {
			gen := dataset.NewGenerator(1)
			gen.ImageOrder = order
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gen.Generate(dataset.Condition{AngleDeg: 0, Rep: i + 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- pipeline-stage benchmarks (§IV-B15 runtime) ---

// benchCapture renders one capture for the unit benchmarks.
func benchCapture(b *testing.B) *audio.Recording {
	b.Helper()
	gen := dataset.NewGenerator(77)
	rec, err := dataset.CaptureRecording(gen, dataset.Condition{})
	if err != nil {
		b.Fatal(err)
	}
	return rec
}

func BenchmarkSynthesizeWakeWord(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	voice := speech.DefaultVoice()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		speech.Synthesize(speech.WordComputer, voice, 48000, rng)
	}
}

func BenchmarkCaptureSimulation(b *testing.B) {
	gen := dataset.NewGenerator(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.CaptureRecording(gen, dataset.Condition{Rep: i + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateSample(b *testing.B) {
	gen := dataset.NewGenerator(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(dataset.Condition{Rep: i + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeOrientation measures the on-device orientation path
// the paper times at 136 ms on a PC: feature extraction plus SVM
// prediction on a preprocessed 4-channel capture.
func BenchmarkRuntimeOrientation(b *testing.B) {
	rec := benchCapture(b)
	cfg := features.DefaultConfig(13, 48000)
	// A small trained model (content irrelevant to the timing).
	var x [][]float64
	var y []int
	gen := dataset.NewGenerator(5)
	for i := 0; i < 10; i++ {
		angle := 0.0
		label := orientation.LabelFacing
		if i%2 == 0 {
			angle = 180
			label = orientation.LabelNonFacing
		}
		s, err := gen.Generate(dataset.Condition{AngleDeg: angle, Rep: i + 1})
		if err != nil {
			b.Fatal(err)
		}
		x = append(x, s.Features)
		y = append(y, label)
	}
	model, err := orientation.Train(x, y, orientation.ModelConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feats, err := features.Extract(rec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		model.Predict(feats)
	}
}

// BenchmarkRuntimeLiveness measures the liveness path the paper times
// at 42 ms on a PC: filterbank frontend plus network forward pass on
// one mono utterance.
func BenchmarkRuntimeLiveness(b *testing.B) {
	rng := rand.New(rand.NewPCG(6, 7))
	det := liveness.NewDetector(1)
	var waveforms [][]float64
	var labels []int
	for i := 0; i < 8; i++ {
		buf := speech.Synthesize(speech.WordComputer, speech.RandomVoice(rng), 16000, rng)
		waveforms = append(waveforms, buf.Samples)
		labels = append(labels, i%2)
	}
	if err := det.Train(waveforms, 16000, labels); err != nil {
		b.Fatal(err)
	}
	probe := waveforms[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Score(probe, 16000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreprocessBandpass(b *testing.B) {
	rec := benchCapture(b)
	bp, err := dsp.NewButterworthBandPass(5, 100, 16000, 48000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ch := range rec.Channels {
			bp.Apply(ch)
		}
	}
}

func BenchmarkGCCPHATPair(b *testing.B) {
	rec := benchCapture(b)
	pair := rec.Channels[:2]
	opt := srp.PairOptions{MaxLag: 13, PHAT: true, SampleRate: 48000, BandLo: 100, BandHi: 8000}
	var ws srp.Workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.AllPairs(pair, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrientationFeatureVector(b *testing.B) {
	rec := benchCapture(b)
	cfg := features.DefaultConfig(13, 48000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := features.Extract(rec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVMTrain200(b *testing.B) {
	rng := rand.New(rand.NewPCG(8, 9))
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		cls := i % 2
		base := -1.0
		if cls == 1 {
			base = 1
		}
		row := make([]float64, 50)
		for j := range row {
			row[j] = base + rng.NormFloat64()
		}
		x = append(x, row)
		y = append(y, cls)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svm := ml.NewSVM(10, ml.RBFKernel{Gamma: 0.02})
		svm.Seed = uint64(i + 1)
		if err := svm.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineStages times each DSP-bound serving-pipeline stage
// in isolation on one synthesized capture — the per-stage breakdown of
// the paper's §IV-B15 runtime table, and the trajectory benchmark for
// the planned-FFT engine (every stage below funnels into dsp plans).
func BenchmarkPipelineStages(b *testing.B) {
	rec := benchCapture(b)
	mono := rec.Mono()
	spotter, err := va.NewSpotter(speech.WordComputer, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("spotter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spotter.Detect(mono, rec.SampleRate)
		}
	})
	// The layer stages run on warm served workspaces, the way a serving
	// worker runs them: one untimed call sizes every buffer first.
	b.Run("liveness-frontend", func(b *testing.B) {
		var ws liveness.Workspace
		if _, err := ws.Frames(mono, rec.SampleRate); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ws.Frames(mono, rec.SampleRate); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gcc-allpairs", func(b *testing.B) {
		opt := srp.PairOptions{MaxLag: 13, PHAT: true, SampleRate: 48000, BandLo: 100, BandHi: 8000}
		var ws srp.Workspace
		if _, err := ws.AllPairs(rec.Channels, opt); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ws.AllPairs(rec.Channels, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("welch-psd", func(b *testing.B) {
		var ws dsp.PSDWorkspace
		psd, err := ws.WelchPSD(nil, mono, 1024)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if psd, err = ws.WelchPSD(psd, mono, 1024); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("features", func(b *testing.B) {
		cfg := features.DefaultConfig(13, 48000)
		var ws features.Workspace
		if _, err := ws.Extract(rec, cfg); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ws.Extract(rec, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Streaming variants: the per-chunk cost of the continuous-listening
	// cascade. "stream-ingest" is the silence fast path (validate, ring
	// write, energy exit); "stream-spot" adds decimation, fingerprinting
	// and online template scoring on an audible chunk. Both are 10 ms
	// chunks, so audio_s/s is the real-time factor per session.
	newStreamManager := func(b *testing.B) *stream.Manager {
		m, err := stream.NewManager(stream.Config{
			SampleRate:   48000,
			Channels:     4,
			Spotter:      spotter,
			JanitorEvery: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(m.Close)
		return m
	}
	streamChunk := func(amp float64) [][]float64 {
		rng := rand.New(rand.NewPCG(9, 9))
		chunk := make([][]float64, 4)
		for c := range chunk {
			chunk[c] = make([]float64, 480)
			for i := range chunk[c] {
				chunk[c][i] = amp * rng.NormFloat64()
			}
		}
		return chunk
	}
	for _, bc := range []struct {
		name string
		amp  float64
	}{{"stream-ingest", 0}, {"stream-spot", 0.2}} {
		b.Run(bc.name, func(b *testing.B) {
			m := newStreamManager(b)
			chunk := streamChunk(bc.amp)
			ctx := context.Background()
			// Warm-up push: session creation (ring allocation) is
			// one-time, not steady-state cost.
			if _, err := m.Push(ctx, "bench", chunk); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Push(ctx, "bench", chunk); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(0.01*float64(b.N)/b.Elapsed().Seconds(), "audio_s/s")
		})
	}
}

// streamBenchFeed returns a padded wake-word utterance at 48 kHz
// replicated across 4 channels, plus the same samples as a Recording
// for the batch baseline.
func streamBenchFeed() ([][]float64, *Recording) {
	rng := rand.New(rand.NewPCG(42, 0x5b07734))
	buf := speech.Synthesize(speech.WordComputer, speech.RandomVoice(rng), 48000, rng)
	pad := make([]float64, 9600)
	mono := append(append(append([]float64(nil), pad...), buf.Samples...), pad...)
	feed := make([][]float64, 4)
	rec := audio.NewRecording(48000, 4, len(mono))
	for c := range feed {
		feed[c] = mono
		copy(rec.Channels[c], mono)
	}
	return feed, rec
}

// BenchmarkStreamEndToEnd compares continuous-listening ingest against
// the batch path on the same trained system and the same wake-word
// audio: "streaming" pushes 10 ms chunks through the early-exit cascade
// until the spotted candidate's bounded window is decided; "batch" runs
// the full recording through the pipeline in one call. audio_s/s is
// audio seconds processed per wall second.
func BenchmarkStreamEndToEnd(b *testing.B) {
	engineBenchSetup()
	if engineBenchErr != nil {
		b.Fatal(engineBenchErr)
	}
	feed, rec := streamBenchFeed()
	spotter, err := va.NewSpotter(speech.WordComputer, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	feedSeconds := float64(len(feed[0])) / 48000

	b.Run("streaming", func(b *testing.B) {
		eng, err := NewEngine(EngineConfig{
			System:  engineBenchSys,
			Workers: 2,
			Streaming: &stream.Config{
				SampleRate:   48000,
				Channels:     4,
				Spotter:      spotter,
				JanitorEvery: -1,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Start(); err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		chunk := make([][]float64, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sid := fmt.Sprintf("s%d", i)
			decided := false
			for start := 0; start < len(feed[0]) && !decided; start += 480 {
				end := start + 480
				if end > len(feed[0]) {
					end = len(feed[0])
				}
				for c := range chunk {
					chunk[c] = feed[c][start:end]
				}
				res, err := eng.PushFrames(context.Background(), sid, chunk)
				if err != nil {
					b.Fatal(err)
				}
				decided = res.Status == stream.StatusDecided
			}
			if !decided {
				b.Fatal("feed ended without a decision")
			}
			if _, err := eng.EndSession(sid); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(feedSeconds*float64(b.N)/b.Elapsed().Seconds(), "audio_s/s")
	})

	b.Run("batch", func(b *testing.B) {
		eng, err := NewEngine(EngineConfig{System: engineBenchSys, Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Start(); err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Decide(context.Background(), rec); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(feedSeconds*float64(b.N)/b.Elapsed().Seconds(), "audio_s/s")
	})
}

// --- serving-layer benchmarks ---

// engineBenchState shares the trained system and the fixed wake-word
// batch across worker-count sweeps so each sub-benchmark measures only
// serving throughput.
var (
	engineBenchOnce  sync.Once
	engineBenchSys   *System
	engineBenchBatch []*Recording
	engineBenchErr   error
)

func engineBenchSetup() {
	engineBenchOnce.Do(func() {
		gen := dataset.NewGenerator(21)
		var x [][]float64
		var y []int
		for i := 0; i < 10; i++ {
			angle := 0.0
			label := orientation.LabelFacing
			if i%2 == 0 {
				angle = 180
				label = orientation.LabelNonFacing
			}
			s, err := gen.Generate(dataset.Condition{AngleDeg: angle, Rep: i + 1})
			if err != nil {
				engineBenchErr = err
				return
			}
			x = append(x, s.Features)
			y = append(y, label)
		}
		model, err := orientation.Train(x, y, orientation.ModelConfig{Seed: 1})
		if err != nil {
			engineBenchErr = err
			return
		}
		sys, err := NewSystem(Config{Models: NewStaticModels(ModelSet{Orientation: model})})
		if err != nil {
			engineBenchErr = err
			return
		}
		sys.SetMode(ModeHeadTalk)
		engineBenchSys = sys
		// Fixed batch of synthesized wake words, facing and not.
		for i := 0; i < 8; i++ {
			rec, err := dataset.CaptureRecording(gen, dataset.Condition{
				AngleDeg: float64((i % 2) * 180),
				Rep:      100 + i,
			})
			if err != nil {
				engineBenchErr = err
				return
			}
			engineBenchBatch = append(engineBenchBatch, rec)
		}
	})
}

// BenchmarkEngineThroughput sweeps the serving engine's worker count
// over a fixed batch of synthesized wake words, reporting
// decisions/sec — the serving-layer perf baseline. Decisions/sec
// should improve monotonically from 1 to 4 workers on a multi-core
// machine (each worker owns its DSP state, so the pipeline has no
// shared locks on the hot path).
func BenchmarkEngineThroughput(b *testing.B) {
	benchEngineThroughput(b, false)
}

// BenchmarkEngineThroughputTraced is the same sweep with a trace store
// enabled, so `make bench` records the traced-vs-untraced delta. The
// tracing acceptance bound is ≤5% throughput overhead.
func BenchmarkEngineThroughputTraced(b *testing.B) {
	benchEngineThroughput(b, true)
}

func benchEngineThroughput(b *testing.B, traced bool) {
	engineBenchSetup()
	if engineBenchErr != nil {
		b.Fatal(engineBenchErr)
	}
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := EngineConfig{
				System:    engineBenchSys,
				Workers:   workers,
				QueueSize: 4 * workers,
			}
			if traced {
				cfg.Traces = NewTraceStore(0, 0)
				cfg.Traces.SetEnabled(true)
			}
			eng, err := NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := engineBenchBatch[i%len(engineBenchBatch)]
				wg.Add(1)
				for {
					_, err := eng.Submit(context.Background(), ServeRequest{
						Recording: rec,
						Callback:  func(ServeResult) { wg.Done() },
					})
					if err == nil {
						break
					}
					if errors.Is(err, ErrQueueFull) {
						runtime.Gosched() // backpressure: retry
						continue
					}
					b.Fatal(err)
				}
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
			if err := eng.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
