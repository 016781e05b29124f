// Quickstart: enroll HeadTalk on synthetic data, switch the system
// into HeadTalk mode and watch it accept a facing wake word while
// rejecting a turned-away one and a loudspeaker replay.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"headtalk"
	"headtalk/internal/dataset"
)

func main() {
	log.SetFlags(0)

	// 1. Enroll: synthesize the "first day of setup" corpus and train
	// both gates (orientation SVM + liveness conv-net).
	fmt.Println("enrolling (synthesizing training utterances)...")
	enr, err := headtalk.Enroll(headtalk.EnrollmentOptions{Seed: 11, Progress: os.Stderr})
	if err != nil {
		log.Fatalf("enroll: %v", err)
	}

	// 2. Build the privacy controller and enter HeadTalk mode.
	sys, err := headtalk.NewSystem(headtalk.Config{
		Models: headtalk.NewStaticModels(headtalk.ModelSet{
			Liveness:    enr.Liveness,
			Orientation: enr.Orientation,
		}),
	})
	if err != nil {
		log.Fatalf("new system: %v", err)
	}
	sys.SetMode(headtalk.ModeHeadTalk)

	// 3. Simulate three wake-word events from the living room.
	gen := headtalk.NewGenerator(99)
	events := []struct {
		label string
		cond  headtalk.Condition
	}{
		{"owner facing the device (0°)", headtalk.Condition{AngleDeg: 0}},
		{"owner facing away (180°)", headtalk.Condition{AngleDeg: 180}},
		{"TV replaying the wake word", headtalk.Condition{AngleDeg: 0, Replay: "Smart TV"}},
	}
	for _, ev := range events {
		rec, err := dataset.CaptureRecording(gen, ev.cond)
		if err != nil {
			log.Fatalf("simulate %q: %v", ev.label, err)
		}
		decision, err := sys.ProcessWake(context.Background(), rec)
		if err != nil {
			log.Fatalf("process %q: %v", ev.label, err)
		}
		sys.EndSession() // evaluate each event independently
		fmt.Printf("%-32s -> accepted=%-5v (%s)\n", ev.label, decision.Accepted, decision.Reason)
	}
}
