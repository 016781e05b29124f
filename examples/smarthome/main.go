// Smart home: a full assistant (wake-word spotter + HeadTalk core)
// lives through an evening of household audio — the owner asking for
// music while facing it, side conversation mentioning the wake word,
// and a TV saying it outright. The cloud-upload log shows what each
// privacy mode would have shipped off-device.
package main

import (
	"fmt"
	"log"
	"os"

	"headtalk"
	"headtalk/internal/dataset"
)

type event struct {
	label  string
	source string
	cond   headtalk.Condition
}

func main() {
	log.SetFlags(0)

	fmt.Println("enrolling HeadTalk and building the wake-word spotter...")
	enr, err := headtalk.Enroll(headtalk.EnrollmentOptions{Seed: 31, Progress: os.Stderr})
	if err != nil {
		log.Fatalf("enroll: %v", err)
	}
	spotter, err := headtalk.NewSpotter(headtalk.WordComputer, 4, 31)
	if err != nil {
		log.Fatalf("spotter: %v", err)
	}

	evening := []event{
		{"owner: 'Computer, play jazz' (facing, 2 m)", "owner",
			headtalk.Condition{Distance: 1, AngleDeg: 0, Rep: 1}},
		{"owner mentions 'computer' mid-chat (90° away)", "owner-chat",
			headtalk.Condition{Distance: 3, AngleDeg: 90, Rep: 2}},
		{"owner on the sofa, back turned (180°)", "owner-chat",
			headtalk.Condition{Distance: 3, AngleDeg: 180, Rep: 3}},
		{"TV character says 'computer'", "tv",
			headtalk.Condition{Distance: 3, AngleDeg: 0, Replay: "Smart TV", Rep: 4}},
		{"owner again, facing (follow-up)", "owner",
			headtalk.Condition{Distance: 1, AngleDeg: 0, Rep: 5}},
	}

	for _, mode := range []headtalk.Mode{headtalk.ModeNormal, headtalk.ModeHeadTalk} {
		sys, err := headtalk.NewSystem(headtalk.Config{
			Models: headtalk.NewStaticModels(headtalk.ModelSet{
				Liveness:    enr.Liveness,
				Orientation: enr.Orientation,
			}),
		})
		if err != nil {
			log.Fatalf("new system: %v", err)
		}
		assistant, err := headtalk.NewAssistant("living-room", spotter, sys)
		if err != nil {
			log.Fatalf("assistant: %v", err)
		}
		sys.SetMode(mode)

		fmt.Printf("\n--- evening in %s mode ---\n", mode)
		gen := headtalk.NewGenerator(777) // same audio for both modes
		for _, ev := range evening {
			rec, err := dataset.CaptureRecording(gen, ev.cond)
			if err != nil {
				log.Fatalf("simulate %q: %v", ev.label, err)
			}
			resp, err := assistant.Hear(rec, ev.source)
			if err != nil {
				log.Fatalf("hear %q: %v", ev.label, err)
			}
			sys.EndSession()
			status := "ignored (no wake word heard)"
			if resp.WakeDetected {
				if resp.Uploaded {
					status = "UPLOADED to cloud — \"" + resp.Speech + "\""
				} else {
					status = "blocked — \"" + resp.Speech + "\""
				}
			}
			fmt.Printf("  %-46s %s\n", ev.label, status)
		}
		fmt.Printf("  uploads by source: %v\n", assistant.UploadsBySource())
	}
}
