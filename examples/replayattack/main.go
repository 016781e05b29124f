// Replay attack: an adversary records the owner's wake word and
// replays it through three different loudspeakers from the best
// possible position (facing the device at 1 m). The liveness gate
// rejects the replays that a stock voice assistant — and even a pure
// orientation check — would accept.
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

	fmt.Println("enrolling HeadTalk...")
	enr, err := headtalk.Enroll(headtalk.EnrollmentOptions{Seed: 23, Progress: os.Stderr})
	if err != nil {
		log.Fatalf("enroll: %v", err)
	}
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

	gen := headtalk.NewGenerator(555)
	attacks := []string{"Sony SRS-X5", "Samsung Galaxy S21 Ultra", "Smart TV"}
	const trialsPer = 5

	fmt.Printf("\n%-28s  %-9s  %-9s\n", "replay device", "accepted", "blocked")
	accepted, blocked := 0, 0
	for _, dev := range attacks {
		devAccepted := 0
		for trial := 1; trial <= trialsPer; trial++ {
			rec, err := dataset.CaptureRecording(gen, headtalk.Condition{
				Distance: 1, AngleDeg: 0, Replay: dev, Rep: trial,
			})
			if err != nil {
				log.Fatalf("simulate attack: %v", err)
			}
			d, err := sys.ProcessWake(context.Background(), rec)
			if err != nil {
				log.Fatalf("process attack: %v", err)
			}
			sys.EndSession()
			if d.Accepted {
				devAccepted++
				accepted++
			} else {
				blocked++
			}
		}
		fmt.Printf("%-28s  %d/%d        %d/%d\n", dev, devAccepted, trialsPer, trialsPer-devAccepted, trialsPer)
	}

	// Control: the owner can still get in.
	ownerOK := 0
	const ownerTrials = 5
	for trial := 1; trial <= ownerTrials; trial++ {
		rec, err := dataset.CaptureRecording(gen, headtalk.Condition{
			Distance: 1, AngleDeg: 0, Rep: 100 + trial,
		})
		if err != nil {
			log.Fatalf("simulate owner: %v", err)
		}
		d, err := sys.ProcessWake(context.Background(), rec)
		if err != nil {
			log.Fatalf("process owner: %v", err)
		}
		sys.EndSession()
		if d.Accepted {
			ownerOK++
		}
	}

	fmt.Printf("\nreplay attacks blocked: %d/%d\n", blocked, accepted+blocked)
	fmt.Printf("owner (live, facing) accepted: %d/%d\n", ownerOK, ownerTrials)
}
