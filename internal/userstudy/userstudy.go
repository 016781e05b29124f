// Package userstudy reproduces the analysis of the paper's 20-person
// usability study (§V): the post-study survey tallies of Table V and
// the System Usability Scale scoring with 95% confidence intervals.
// The study itself cannot be re-run offline, so the published response
// counts are embedded as data and the full analysis pipeline (SUS
// scoring, interval computation, takeaway percentages) is implemented
// and verified against the paper's reported numbers.
package userstudy

import "fmt"

// SurveyQuestion is one Table V row: the question plus labeled
// response counts in presentation order.
type SurveyQuestion struct {
	Question  string
	Options   []string
	Counts    []int
	SkipLabel string // label that denotes a skipped/N-A answer, if any
}

// TableV returns the paper's post-study survey responses.
func TableV() []SurveyQuestion {
	return []SurveyQuestion{
		{
			Question: "How many home voice assistants do you have at home?",
			Options:  []string{"0", "1", "2", "above 2"},
			Counts:   []int{5, 12, 2, 1},
		},
		{
			Question:  "How often do you face the VA when you are interacting with the VA (if you have one)?",
			Options:   []string{"N/A", "Very less", "Less", "Often", "Very often"},
			Counts:    []int{5, 1, 4, 6, 4},
			SkipLabel: "N/A",
		},
		{
			Question: "How easy was it to use HeadTalk compared with existing privacy controls?",
			Options:  []string{"Extremely easy", "Somewhat easy", "Neither easy nor difficult", "Somewhat difficult", "Extremely difficult"},
			Counts:   []int{10, 9, 0, 1, 0},
		},
		{
			Question: "Would you deploy HeadTalk on your voice assistant?",
			Options:  []string{"Definitely yes", "Probably yes", "Might or might not", "Probably not", "Definitely not"},
			Counts:   []int{7, 7, 5, 0, 1},
		},
		{
			Question: "Compare HeadTalk with the existing privacy control.",
			Options:  []string{"Much better", "Somewhat better", "About the same", "Somewhat worse", "Much worse"},
			Counts:   []int{9, 5, 5, 0, 1},
		},
	}
}

// TopTwoFraction returns the fraction of non-skipped respondents who
// picked one of the first two (most favorable) options. Used for the
// paper's takeaways (95% found it easy, 70% would deploy, ~70% found
// it better).
func (q SurveyQuestion) TopTwoFraction() (float64, error) {
	if len(q.Counts) < 2 {
		return 0, fmt.Errorf("userstudy: question %q has fewer than two options", q.Question)
	}
	num, denom, seen := 0, 0, 0
	for i, c := range q.Counts {
		if q.SkipLabel != "" && q.Options[i] == q.SkipLabel {
			continue
		}
		denom += c
		if seen < 2 {
			num += c
		}
		seen++
	}
	if denom == 0 {
		return 0, fmt.Errorf("userstudy: question %q has no substantive responses", q.Question)
	}
	return float64(num) / float64(denom), nil
}

// SUSSummary is a scored questionnaire set.
type SUSSummary struct {
	Mean float64
	// CI95 is the half-width of the 95% confidence interval of the
	// mean.
	CI95 float64
	N    int
}

// AboveAverage reports whether the mean clears the conventional SUS
// benchmark of 68.
func (s SUSSummary) AboveAverage() bool { return s.Mean > 68 }

// String formats the summary the way the paper reports it.
func (s SUSSummary) String() string {
	return fmt.Sprintf("%.2f ± %.2f (n=%d)", s.Mean, s.CI95, s.N)
}

// PaperSUS returns the paper's reported SUS results for HeadTalk and
// the existing mute-button control.
func PaperSUS() (headTalk, existing SUSSummary) {
	return SUSSummary{Mean: 77.38, CI95: 6.26, N: 20},
		SUSSummary{Mean: 74.75, CI95: 8.12, N: 20}
}
