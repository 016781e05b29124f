package stream

import (
	"fmt"
	"sync"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/features"
	"headtalk/internal/srp"
)

// TrackerConfig configures per-speaker tracking across utterances.
// Streaming clients rarely supply a speaker identity, so the tracker
// derives one from the candidate window itself: the vector of per-pair
// TDoA lags is a coarse position signature — two utterances from the
// same seat produce near-identical lag vectors, while a talker across
// the room produces a distant one.
type TrackerConfig struct {
	// Tolerance is the maximum mean per-pair lag distance (in samples)
	// for a candidate to join an existing track. Default 2.
	Tolerance float64
	// MaxTracks bounds concurrent tracks; at capacity the
	// longest-idle track is recycled. Default 32.
	MaxTracks int
	// TrackTimeout evicts tracks idle this long. Zero means four times
	// the manager's SessionTimeout.
	TrackTimeout time.Duration
}

// A candidate's signature correlates lags up to signatureMaxLag samples
// at the full stream rate (covering the largest supported array at
// 48 kHz), and each track keeps the facing margins of its last
// historyLen decisions.
const (
	signatureMaxLag = 16
	historyLen      = 16
)

func (c *TrackerConfig) applyDefaults(sessionTimeout time.Duration) {
	if c.Tolerance == 0 {
		c.Tolerance = 2
	}
	if c.MaxTracks == 0 {
		c.MaxTracks = 32
	}
	if c.TrackTimeout == 0 {
		c.TrackTimeout = 4 * sessionTimeout
	}
}

// SpeakerInfo is a caller-facing snapshot of one speaker track at the
// moment a candidate was attributed to it.
type SpeakerInfo struct {
	// ID is the tracker-assigned identity ("spk-1", "spk-2", ...).
	ID string
	// Utterances counts candidates attributed to this speaker,
	// including this one.
	Utterances int
	// Facing is the speaker's current facing state (from the latest
	// decision whose orientation stage ran).
	Facing bool
	// FacingScore is the latest orientation margin.
	FacingScore float64
	// MeanFacing is the mean margin over the retained history — the
	// cross-utterance orientation evidence for this speaker.
	MeanFacing float64
	// FirstSeen / LastSeen bound the track's lifetime.
	FirstSeen, LastSeen time.Time
}

// track is one speaker's mutable state.
type track struct {
	id        string
	sig       []float64 // EMA of per-pair TDoA lags
	firstSeen time.Time
	lastSeen  time.Time
	utters    int
	history   []float64 // facing margins, newest last, bounded
	facing    bool
	facingSet bool
	facingCur float64
}

func (t *track) info() SpeakerInfo {
	var mean float64
	for _, v := range t.history {
		mean += v
	}
	if len(t.history) > 0 {
		mean /= float64(len(t.history))
	}
	return SpeakerInfo{
		ID:          t.id,
		Utterances:  t.utters,
		Facing:      t.facing,
		FacingScore: t.facingCur,
		MeanFacing:  mean,
		FirstSeen:   t.firstSeen,
		LastSeen:    t.lastSeen,
	}
}

// Tracker clusters candidate utterances into speaker tracks by TDoA
// signature and carries orientation history and facing state across
// utterances. It has its own lock — signature matching never holds the
// manager's session-map lock.
type Tracker struct {
	cfg TrackerConfig

	mu     sync.Mutex
	tracks []*track
	nextID int
}

// Len returns the live track count.
func (tk *Tracker) Len() int {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return len(tk.tracks)
}

// sigScratch is one signature computation's reusable state: the focus
// locator's channel-mean buffer, the cropped channel headers and the
// GCC workspace (a few MB of FFT scratch at the default focus window).
type sigScratch struct {
	mono  []float64
	heads [][]float64
	gcc   srp.Workspace
}

// sigPool recycles signature scratch across candidates and sessions:
// candidates are rare, so a pool beats a per-session workspace that
// would sit idle between utterances.
var sigPool = sync.Pool{New: func() any { return new(sigScratch) }}

// Signature derives the per-pair TDoA lag vector of a candidate
// window: the 300–4000 Hz PHAT GCC lags of every channel pair over the
// window's focus — the same highest-energy 32768-sample span the
// feature extractor analyses (features.FocusBounds). Correlating the
// spoken word rather than the whole ring matters: under PHAT
// whitening every bin votes equally, so a long noise lead-in from
// another direction (a TV, a fan) would otherwise outvote the word and
// sign the candidate with the noise source's position. The vector
// length is C(channels, 2); it is the only allocation of a warm call.
func Signature(rec *audio.Recording, maxLag int) ([]int, error) {
	sc := sigPool.Get().(*sigScratch)
	defer sigPool.Put(sc)
	start, length := features.FocusBounds(rec, 0, &sc.mono)
	sc.heads = sc.heads[:0]
	for _, ch := range rec.Channels {
		sc.heads = append(sc.heads, ch[start:start+length])
	}
	pairs, err := sc.gcc.AllPairs(sc.heads, srp.PairOptions{
		MaxLag:     maxLag,
		PHAT:       true,
		SampleRate: rec.SampleRate,
		BandLo:     300,
		BandHi:     4000,
	})
	clear(sc.heads) // the pooled scratch must not pin the caller's samples
	if err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("stream: %d channels yield no GCC pairs", len(rec.Channels))
	}
	sig := make([]int, len(pairs))
	for i, p := range pairs {
		sig[i] = p.TDoA
	}
	return sig, nil
}

// sigDistance is the mean absolute per-pair lag difference.
func sigDistance(a []float64, b []int) float64 {
	var acc float64
	for i := range a {
		d := a[i] - float64(b[i])
		if d < 0 {
			d = -d
		}
		acc += d
	}
	return acc / float64(len(a))
}

// Observe attributes one candidate signature to a speaker track —
// matching the nearest track within tolerance, else opening a new one
// (recycling the longest-idle track at capacity) — and folds the
// decision's orientation evidence into the track. d may be nil (no
// decision pipeline configured); its orientation fields are used only
// when the facing stage ran. matched reports whether an existing track
// was reused.
func (tk *Tracker) Observe(sig []int, d *core.Decision, now time.Time) (SpeakerInfo, bool) {
	tk.mu.Lock()
	defer tk.mu.Unlock()

	var best *track
	bestDist := tk.cfg.Tolerance
	for _, t := range tk.tracks {
		if len(t.sig) != len(sig) {
			continue
		}
		if dist := sigDistance(t.sig, sig); dist <= bestDist {
			best, bestDist = t, dist
		}
	}
	matched := best != nil
	if best == nil {
		best = tk.open(sig, now)
	} else {
		// Fold the new observation into the stored signature so a slowly
		// shifting talker keeps their identity.
		const alpha = 0.3
		for i := range best.sig {
			best.sig[i] += alpha * (float64(sig[i]) - best.sig[i])
		}
	}
	best.lastSeen = now
	best.utters++
	if d != nil && d.FacingRan {
		best.facingCur = d.FacingScore
		best.facing = d.FacingScore > 0
		best.facingSet = true
		best.history = append(best.history, d.FacingScore)
		if len(best.history) > historyLen {
			best.history = best.history[len(best.history)-historyLen:]
		}
	}
	return best.info(), matched
}

// open creates a track, recycling the longest-idle one at capacity.
func (tk *Tracker) open(sig []int, now time.Time) *track {
	if len(tk.tracks) >= tk.cfg.MaxTracks {
		oldest := 0
		for i, t := range tk.tracks {
			if t.lastSeen.Before(tk.tracks[oldest].lastSeen) {
				oldest = i
			}
		}
		tk.tracks = append(tk.tracks[:oldest], tk.tracks[oldest+1:]...)
	}
	tk.nextID++
	t := &track{
		id:        fmt.Sprintf("spk-%d", tk.nextID),
		sig:       make([]float64, len(sig)),
		firstSeen: now,
	}
	for i, v := range sig {
		t.sig[i] = float64(v)
	}
	tk.tracks = append(tk.tracks, t)
	return t
}

// EvictIdle drops tracks idle longer than TrackTimeout and returns how
// many were dropped.
func (tk *Tracker) EvictIdle(now time.Time) int {
	cutoff := now.Add(-tk.cfg.TrackTimeout)
	tk.mu.Lock()
	defer tk.mu.Unlock()
	kept := tk.tracks[:0]
	n := 0
	for _, t := range tk.tracks {
		if t.lastSeen.Before(cutoff) {
			n++
			continue
		}
		kept = append(kept, t)
	}
	for i := len(kept); i < len(tk.tracks); i++ {
		tk.tracks[i] = nil
	}
	tk.tracks = kept
	return n
}

// attributeSpeaker folds one candidate's TDoA signature into the
// speaker tracker and returns the track snapshot. Called from the
// session push path at candidate rate only (never per chunk). A nil
// tracker or failed signature yields nil — the push result simply
// carries no speaker.
func (m *Manager) attributeSpeaker(sig []int, d *core.Decision) *SpeakerInfo {
	if m.speakers == nil || len(sig) == 0 {
		return nil
	}
	info, matched := m.speakers.Observe(sig, d, m.now())
	if matched {
		m.ins.speakerMatched.Inc()
	} else {
		m.ins.speakerCreated.Inc()
	}
	m.ins.speakerActive.Set(int64(m.speakers.Len()))
	return &info
}
