package core

// UpdateGolden exposes the package's -update flag to the external
// core_test package, whose goldens need the public headtalk API (a
// second flag of the same name would collide in the test binary).
var UpdateGolden = update

// DecisionsEqual and RaceEnabled serve the external tests' arena and
// allocation pins.
var DecisionsEqual = decisionsEqual

const RaceEnabled = raceEnabled
