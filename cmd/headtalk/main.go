// Command headtalk runs an end-to-end interactive demonstration of the
// HeadTalk privacy control: it enrolls the two gates on synthetic
// data, then plays a scripted smart-home scenario (owner facing, owner
// turned away, TV replay, phone replay attack) through each privacy
// mode and reports what would have been uploaded to the cloud.
//
// Usage:
//
//	headtalk [-seed N] [-angles list] [-distance m] [-trace]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"headtalk"
	"headtalk/internal/dataset"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 7, "simulation seed")
		anglesCS  = flag.String("angles", "0,30,90,180", "head angles (degrees) to demonstrate")
		distance  = flag.Float64("distance", 3, "speaker distance in meters")
		showTrace = flag.Bool("trace", false, "print a per-stage latency table for each decision (paper §IV-B15)")
	)
	flag.Parse()

	angles, err := parseAngles(*anglesCS)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Println("HeadTalk demo — enrolling on synthetic data (this takes ~30 s)...")
	enr, err := headtalk.Enroll(headtalk.EnrollmentOptions{Seed: *seed, Progress: os.Stderr})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sys, err := headtalk.NewSystem(headtalk.Config{
		Models: headtalk.NewStaticModels(headtalk.ModelSet{
			Liveness:    enr.Liveness,
			Orientation: enr.Orientation,
		}),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sys.SetMode(headtalk.ModeHeadTalk)

	gen := headtalk.NewGenerator(*seed + 100)

	type scenario struct {
		label string
		cond  headtalk.Condition
	}
	var scenarios []scenario
	for _, a := range angles {
		scenarios = append(scenarios, scenario{
			label: fmt.Sprintf("owner speaks at %+.0f°", a),
			cond:  headtalk.Condition{Distance: *distance, AngleDeg: a},
		})
	}
	scenarios = append(scenarios,
		scenario{"smart TV says the wake word", headtalk.Condition{Distance: *distance, AngleDeg: 0, Replay: "Smart TV", Rep: 2}},
		scenario{"attacker replays via phone", headtalk.Condition{Distance: *distance, AngleDeg: 0, Replay: "Samsung Galaxy S21 Ultra", Rep: 3}},
	)

	fmt.Printf("\n%-36s  %-8s  %-10s  %-9s  %s\n", "scenario", "live?", "facing?", "accepted", "reason")
	fmt.Println(strings.Repeat("-", 92))
	for i, sc := range scenarios {
		rec, err := captureFor(gen, sc.cond)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simulating %q: %v\n", sc.label, err)
			os.Exit(1)
		}
		ctx := context.Background()
		var rt *headtalk.TraceRecorder
		if *showTrace {
			rt = headtalk.NewTraceRecorder(fmt.Sprintf("demo-%d", i+1))
			ctx = headtalk.WithTrace(ctx, rt)
		}
		d, err := sys.ProcessWake(ctx, rec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "processing %q: %v\n", sc.label, err)
			os.Exit(1)
		}
		sys.EndSession() // score each scenario independently
		fmt.Printf("%-36s  %-8s  %-10s  %-9v  %s\n",
			sc.label, yesNo(d.LiveRan, d.LiveScore >= 0.5),
			yesNo(d.FacingRan, d.FacingScore >= 0), d.Accepted, d.Reason)
		if rt != nil {
			ft := rt.Finish()
			fmt.Printf("\n  stage latency breakdown (%s):\n", ft.ID)
			ft.WriteTable(indentWriter{os.Stdout})
			fmt.Println()
		}
	}

	fmt.Println("\nIn Normal mode every one of these would have been uploaded;")
	fmt.Println("in Mute mode none — HeadTalk keeps the assistant usable while")
	fmt.Println("blocking replays and side-speech.")
}

// captureFor renders a wake-word capture for a condition and returns a
// fresh Recording built from its preprocessed channels. The demo
// re-simulates at the raw-recording level so the System runs its own
// preprocessing, exactly as it would on device audio.
func captureFor(gen *headtalk.Generator, c headtalk.Condition) (*headtalk.Recording, error) {
	return dataset.CaptureRecording(gen, c)
}

// indentWriter prefixes each written chunk with four spaces so the
// stage table nests under its scenario row. WriteTable emits one Write
// per line, which is all this needs to handle.
type indentWriter struct{ w *os.File }

func (iw indentWriter) Write(p []byte) (int, error) {
	if _, err := iw.w.WriteString("    "); err != nil {
		return 0, err
	}
	return iw.w.Write(p)
}

func yesNo(ran, v bool) string {
	if !ran {
		return "-"
	}
	if v {
		return "yes"
	}
	return "no"
}

func parseAngles(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("invalid angle %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
