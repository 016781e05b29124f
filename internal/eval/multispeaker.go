package eval

// Multi-speaker extension experiments: overlapping talkers (cocktail
// party interference), waypoint-trajectory motion beyond the two-pose
// walk, and multi-array decision fusion. None of these appear in the
// paper's evaluation — §VI concedes the single-speaker assumption and
// the introduction motivates rooms with several assistant devices —
// so each table states its own accuracy criterion in its notes.

import (
	"fmt"
	"math/rand/v2"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/dataset"
	"headtalk/internal/fusion"
	"headtalk/internal/geom"
	"headtalk/internal/mic"
	"headtalk/internal/orientation"
	"headtalk/internal/room"
	"headtalk/internal/speech"
)

// OverlappingTalkers evaluates the facing classifier on the primary
// talker when a second, non-facing talker speaks over them at varying
// relative levels. The capture superposes both sources (each with its
// own directivity and onset) through CaptureMulti; ground truth is the
// primary talker's facing state.
func (r *Runner) OverlappingTalkers() (*Table, error) {
	trainSamples, err := r.samples("tableIII", r.tableIIIConds(), false)
	if err != nil {
		return nil, err
	}
	model, err := r.trainOn(trainSamples, orientation.Definition4)
	if err != nil {
		return nil, err
	}

	devPos := geom.Vec3{X: 0.40, Y: 2.10, Z: 0.74}
	scene := labScene(devPos, 32)
	rng := rand.New(rand.NewPCG(r.opts.Seed, 0x07E4))

	primary := geom.Vec3{X: 3.40, Y: 2.10, Z: 1.65}
	interferer := geom.Vec3{X: 2.00, Y: 3.40, Z: 1.65}

	levels := []struct {
		label string
		// SPL of the interferer; <= 0 disables it (clean baseline).
		spl float64
	}{
		{"no interferer", 0},
		{"interferer 10 dB below", 60},
		{"interferer at equal level", 70},
	}

	trials := 4
	if r.opts.Scale == dataset.ScaleTiny {
		trials = 2
	}
	t := &Table{
		ID:     "overlap",
		Title:  "Extension: overlapping talkers (interference vs primary facing state)",
		Header: []string{"Interference", "Facing correct", "Non-facing correct", "Accuracy"},
	}
	for _, lv := range levels {
		perState := [2]int{}
		for si, facing := range []bool{true, false} {
			for trial := 0; trial < trials; trial++ {
				az := geom.Azimuth(devPos.Sub(primary))
				if !facing {
					az += 180
				}
				buf := speech.Synthesize(speech.WordComputer, speech.DefaultVoice(), 48000, rng)
				utt := mic.PrepareUtterance(buf, scene.Sim.Bands)
				srcs := []mic.SceneSource{{
					Source:    room.Source{Pos: primary, Azimuth: az, Dir: room.HumanDirectivity{}},
					Utterance: utt,
					SPL:       70,
				}}
				if lv.spl > 0 {
					ibuf := speech.Synthesize(speech.WordComputer, speech.RandomVoice(rng), 48000, rng)
					iutt := mic.PrepareUtterance(ibuf, scene.Sim.Bands)
					srcs = append(srcs, mic.SceneSource{
						// The interferer faces away from the device, so a
						// correct room-level outcome tracks the primary.
						Source:    room.Source{Pos: interferer, Azimuth: geom.Azimuth(devPos.Sub(interferer)) + 180, Dir: room.HumanDirectivity{}},
						Utterance: iutt,
						SPL:       lv.spl,
						OnsetSec:  0.12,
					})
				}
				rec := scene.CaptureMulti(srcs, rng)
				feats, err := r.extractD2(rec)
				if err != nil {
					return nil, fmt.Errorf("eval: overlap level %q: %w", lv.label, err)
				}
				pred := model.Predict(feats) == orientation.LabelFacing
				if pred == facing {
					perState[si]++
				}
			}
		}
		correct := perState[0] + perState[1]
		t.AddRow(lv.label,
			fmt.Sprintf("%d/%d", perState[0], trials),
			fmt.Sprintf("%d/%d", perState[1], trials),
			pct(float64(correct)/float64(2*trials)))
	}
	t.AddNote("criterion: >= 75%% accuracy with the interferer >= 10 dB below the primary; equal-level overlap is reported for reference")
	t.AddNote("extension beyond the paper: §VI assumes a single active talker")
	return t, nil
}

// TrajectoryWaypoints evaluates the static-trained model on
// multi-waypoint motion paths — an L-shaped walk and a late head turn —
// that the two-pose CaptureMoving walk cannot express.
func (r *Runner) TrajectoryWaypoints() (*Table, error) {
	trainSamples, err := r.samples("tableIII", r.tableIIIConds(), false)
	if err != nil {
		return nil, err
	}
	model, err := r.trainOn(trainSamples, orientation.Definition4)
	if err != nil {
		return nil, err
	}

	devPos := geom.Vec3{X: 0.40, Y: 2.10, Z: 0.74}
	scene := labScene(devPos, 32)
	rng := rand.New(rand.NewPCG(r.opts.Seed, 0x774A))

	// Paths stay near the device's on-axis training geometry (the tiny
	// corpus covers one radial), so the static-trained model's facing
	// margin is meaningful along the whole walk.
	mouth := func(x, y float64) geom.Vec3 { return geom.Vec3{X: x, Y: y, Z: 1.65} }
	lPath := []geom.Vec3{mouth(4.5, 1.7), mouth(3.5, 1.7), mouth(3.4, 2.4)}
	// The cross path's walking direction stays ~90° off the device, so
	// facing the walking direction must read as non-facing.
	lCross := []geom.Vec3{mouth(3.5, 1.2), mouth(3.5, 2.1), mouth(3.3, 3.0)}
	stand := mouth(3.4, 2.1)

	faceDev := func(p geom.Vec3) room.Source {
		return room.Source{Pos: p, Azimuth: geom.Azimuth(devPos.Sub(p)), Dir: room.HumanDirectivity{}}
	}
	facePath := func(p, next geom.Vec3) room.Source {
		return room.Source{Pos: p, Azimuth: geom.Azimuth(next.Sub(p)), Dir: room.HumanDirectivity{}}
	}
	awayDev := func(p geom.Vec3) room.Source {
		s := faceDev(p)
		s.Azimuth += 180
		return s
	}

	scenarios := []struct {
		label      string
		traj       room.Trajectory
		wantFacing bool
	}{
		{"L-walk, facing device throughout", room.Trajectory{Waypoints: []room.Source{
			faceDev(lPath[0]), faceDev(lPath[1]), faceDev(lPath[2]),
		}}, true},
		{"cross-walk, facing walking direction", room.Trajectory{Waypoints: []room.Source{
			facePath(lCross[0], lCross[1]), facePath(lCross[1], lCross[2]), facePath(lCross[1], lCross[2]),
		}}, false},
		{"stationary, turns to device only at the end", room.Trajectory{Waypoints: []room.Source{
			awayDev(stand), awayDev(stand), faceDev(stand),
		}}, false},
	}

	trials := 6
	if r.opts.Scale == dataset.ScaleTiny {
		trials = 2
	}
	t := &Table{
		ID:     "trajectory",
		Title:  "Extension: waypoint trajectories (static-trained Definition-4 model)",
		Header: []string{"Scenario", "Expected", "Classified facing", "Agreement"},
	}
	for _, sc := range scenarios {
		correct, facingVotes := 0, 0
		for trial := 0; trial < trials; trial++ {
			buf := speech.Synthesize(speech.WordComputer, speech.DefaultVoice(), 48000, rng)
			utt := mic.PrepareUtterance(buf, scene.Sim.Bands)
			traj := sc.traj
			rec := scene.CaptureMulti([]mic.SceneSource{{
				Trajectory: &traj,
				Segments:   7,
				Utterance:  utt,
				SPL:        70,
			}}, rng)
			feats, err := r.extractD2(rec)
			if err != nil {
				return nil, fmt.Errorf("eval: trajectory scenario %q: %w", sc.label, err)
			}
			pred := model.Predict(feats) == orientation.LabelFacing
			if pred {
				facingVotes++
			}
			if pred == sc.wantFacing {
				correct++
			}
		}
		expected := "non-facing"
		if sc.wantFacing {
			expected = "facing"
		}
		t.AddRow(sc.label, expected,
			fmt.Sprintf("%d/%d", facingVotes, trials),
			pct(float64(correct)/float64(trials)))
	}
	t.AddNote("criterion: >= 70%% agreement on the device-facing walk and the late-turn case; cross-walk agreement is the reported §VI stress number")
	t.AddNote("extension beyond the paper: §VI lists moving speakers as uncovered; paths here exceed the two-pose walk")
	return t, nil
}

// fusionCounts runs the two-array fusion scenario and returns correct
// room-decision counts for each array alone and for the fused vote.
// Arrays live at placements A and C; each addressed trial degrades the
// far array (two dead channels in the paper's 4-mic subset), so a
// fail-closed single array loses exactly the trials fusion recovers by
// re-weighting toward the healthy array.
func (r *Runner) fusionCounts() (singleA, singleC, fused, total int, err error) {
	// Each array enrolls its own model on captures taken at its own
	// placement — orientation features encode the direction of arrival,
	// so a model is specific to where its array stands in the room.
	samplesA, err := r.samples("tableIII", r.tableIIIConds(), false)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	modelA, err := r.trainOn(samplesA, orientation.Definition4)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	condsC := r.tableIIIConds()
	for i := range condsC {
		condsC[i].Placement = "C"
	}
	samplesC, err := r.samples("fusionC", condsC, false)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	modelC, err := r.trainOn(samplesC, orientation.Definition4)
	if err != nil {
		return 0, 0, 0, 0, err
	}

	posA := geom.Vec3{X: 0.40, Y: 2.10, Z: 0.74}
	posC := geom.Vec3{X: 3.00, Y: 3.60, Z: 0.75}
	sceneA := labScene(posA, 32)
	sceneC := labScene(posC, 32)
	rng := rand.New(rand.NewPCG(r.opts.Seed, 0xF05E))

	// Speaker spots ~3 m out along each device's outward axis (A faces
	// +X, C faces -Y), matching the enrollment grid's radial.
	spotsA := []geom.Vec3{{X: 3.40, Y: 2.10, Z: 1.65}, {X: 3.30, Y: 2.25, Z: 1.65}}
	spotsC := []geom.Vec3{{X: 3.00, Y: 0.60, Z: 1.65}, {X: 2.85, Y: 0.75, Z: 1.65}}

	reps := 2
	if r.opts.Scale == dataset.ScaleTiny {
		reps = 1
	}

	type trial struct {
		spot       geom.Vec3
		facingAz   float64
		wantAccept bool
		// degrade names the array whose capture loses two subset
		// channels ("" keeps both healthy).
		degrade string
	}
	var trials []trial
	for i := 0; i < reps; i++ {
		for _, s := range spotsA {
			trials = append(trials, trial{s, geom.Azimuth(posA.Sub(s)), true, "C"})
		}
		for _, s := range spotsC {
			trials = append(trials, trial{s, geom.Azimuth(posC.Sub(s)), true, "A"})
		}
		// Facing away from the addressed device (both arrays healthy):
		// the room must reject.
		trials = append(trials, trial{spotsA[0], geom.Azimuth(posA.Sub(spotsA[0])) + 180, false, ""})
		trials = append(trials, trial{spotsC[0], geom.Azimuth(posC.Sub(spotsC[0])) + 180, false, ""})
	}

	subset := mic.DeviceD2().DefaultSubset()
	for _, tr := range trials {
		buf := speech.Synthesize(speech.WordComputer, speech.DefaultVoice(), 48000, rng)
		uttA := mic.PrepareUtterance(buf, sceneA.Sim.Bands)
		src := room.Source{Pos: tr.spot, Azimuth: tr.facingAz, Dir: room.HumanDirectivity{}}
		recA := sceneA.Capture(src, uttA, 70, rng)
		recC := sceneC.Capture(src, uttA, 70, rng)
		if tr.degrade == "A" {
			killChannels(recA.Channels, subset[:2])
		}
		if tr.degrade == "C" {
			killChannels(recC.Channels, subset[:2])
		}

		repA, okA, err := r.fusionArrayDecide(modelA, "A", recA)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		repC, okC, err := r.fusionArrayDecide(modelC, "C", recC)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		roomDec := fusion.Fuse([]fusion.ArrayReport{repA, repC})

		total++
		if okA == tr.wantAccept {
			singleA++
		}
		if okC == tr.wantAccept {
			singleC++
		}
		if roomDec.Accepted == tr.wantAccept {
			fused++
		}
	}
	return singleA, singleC, fused, total, nil
}

// killChannels silences the given channels, emulating dead MEMS
// elements for mic.AssessHealth to flag.
func killChannels(channels [][]float64, idx []int) {
	for _, i := range idx {
		for j := range channels[i] {
			channels[i][j] = 0
		}
	}
}

// fusionArrayDecide is one array's serving-side outcome: health check,
// fail closed when any subset channel is degraded, otherwise an
// orientation margin from the shared model. The returned bool is the
// array's standalone accept decision.
func (r *Runner) fusionArrayDecide(model *orientation.Model, id string, rec *audio.Recording) (fusion.ArrayReport, bool, error) {
	h := mic.AssessHealth(rec, mic.HealthConfig{})
	rep := fusion.ArrayReport{
		ArrayID:  id,
		Channels: len(rec.Channels),
		Weight:   fusion.HealthWeight(h),
	}
	if h.Degraded() > 0 {
		rep.Decision = core.Decision{Reason: core.ReasonDegraded, DegradedChannels: h.Degraded()}
		return rep, false, nil
	}
	feats, err := r.extractD2(rec)
	if err != nil {
		return rep, false, fmt.Errorf("eval: fusion array %s: %w", id, err)
	}
	margin := model.Score(feats)
	d := core.Decision{FacingRan: true, FacingScore: margin}
	if margin > 0 {
		d.Accepted = true
		d.Reason = core.ReasonAccepted
	} else {
		d.Reason = core.ReasonNotFacing
	}
	rep.Decision = d
	return rep, d.Accepted, nil
}

// ArrayFusion evaluates the room-level two-array fused decision against
// each array operating alone. Addressed trials degrade the far array,
// so the fail-closed single array rejects utterances it should accept;
// fusion drops the degraded report and follows the healthy array.
func (r *Runner) ArrayFusion() (*Table, error) {
	singleA, singleC, fused, total, err := r.fusionCounts()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fusion",
		Title:  "Extension: two-array decision fusion (health-weighted room vote)",
		Header: []string{"Decider", "Correct", "Accuracy"},
	}
	t.AddRow("array A alone", fmt.Sprintf("%d/%d", singleA, total), pct(float64(singleA)/float64(total)))
	t.AddRow("array C alone", fmt.Sprintf("%d/%d", singleC, total), pct(float64(singleC)/float64(total)))
	t.AddRow("fused room decision", fmt.Sprintf("%d/%d", fused, total), pct(float64(fused)/float64(total)))
	t.AddNote("criterion: fused accuracy strictly exceeds the best single array")
	t.AddNote("each addressed trial kills two subset channels on the far array; singles fail closed, fusion re-weights by mic.AssessHealth")
	return t, nil
}
