package main

import (
	"fmt"
	"strconv"
	"time"
)

// target is where a load phase sends requests: decisions and chunks to
// one daemon, control requests to another — the same standalone daemon,
// or the owning node of a two-node federation (see startCluster).
type target struct {
	decide  *daemonProc
	control *daemonProc
	tenant  string
	procs   []*daemonProc
	nextID  int
}

func (t *target) id() string {
	t.nextID++
	return strconv.Itoa(t.nextID)
}

func (t *target) stop() {
	for _, p := range t.procs {
		p.stop()
	}
}

func (t *target) cpuSeconds() (float64, error) {
	var total float64
	for _, p := range t.procs {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// sample is one measured request of a load phase.
type sample struct {
	pos      int // op index inside the cycle
	decision bool
	rttNS    int64
}

// loadResult is what one load phase observed.
type loadResult struct {
	samples    []sample
	sent       int // requests written, warm-up included
	errors     int // error lines
	decisions  int
	audioS     float64
	cpuS       float64
	mismatches []string
	kernelMS   []float64
}

// loadOptions shape a load phase.
type loadOptions struct {
	duration time.Duration
	warmOps  int
	// wholeCycles extends the phase to the next cycle boundary, so
	// every measured op position is measured equally often.
	wholeCycles bool
}

// kernelEvery spaces the calibration kernel's runs in a load phase.
const kernelEvery = 200 * time.Millisecond

// runLoad drives the closed loop: one outstanding request, cycling
// through the corpus ops until the duration has been measured. Every
// response is checked against expected (indexed by op position); the
// calibration kernel runs between requests, while the daemon is idle.
func runLoad(t *target, c *corpus, expected map[int]outcome, kernel *calibKernel, opt loadOptions) (*loadResult, error) {
	res := &loadResult{}
	var (
		measuring  bool
		start      time.Time
		startPos   int
		cpu0       float64
		lastKernel time.Time
		n          int
		lineBuf    []byte
	)
	beginMeasure := func(pos int) error {
		measuring = true
		start = time.Now()
		startPos = pos
		var err error
		cpu0, err = t.cpuSeconds()
		return err
	}
	send := func(line []byte) (response, int64, error) {
		res.sent++
		r, ns, err := t.decide.roundTrip(line)
		if err == nil && r.Type == "error" {
			res.errors++
		}
		return r, ns, err
	}
	control := func(fields map[string]any) (int64, error) {
		fields["id"] = t.id()
		fields["tenant"] = t.tenant
		res.sent++
		r, ns, err := t.control.roundTrip(request(fields))
		if err != nil {
			return 0, err
		}
		if r.Type == "error" {
			res.errors++
			return ns, fmt.Errorf("control request failed: %s (%s)", r.Error, r.ErrorKind)
		}
		return ns, nil
	}
	reset := func() (int64, error) {
		ns, err := control(map[string]any{"mode": "headtalk"})
		if err != nil {
			return 0, err
		}
		for i := range c.Streams {
			if _, err := control(map[string]any{"v": 2, "session": streamID(i), "end_session": true}); err != nil {
				return 0, err
			}
		}
		return ns, nil
	}

	for pos := 0; ; pos = (pos + 1) % len(c.Ops) {
		if measuring && time.Since(start) >= opt.duration && (!opt.wholeCycles || pos == startPos) {
			break
		}
		if !measuring && n == opt.warmOps {
			if err := beginMeasure(pos); err != nil {
				return nil, err
			}
		}
		n++
		if time.Since(lastKernel) >= kernelEvery {
			res.kernelMS = append(res.kernelMS, kernel.time())
			lastKernel = time.Now()
		}
		o := c.Ops[pos]
		switch o.Kind {
		case opReset:
			ns, err := reset()
			if err != nil {
				return nil, err
			}
			if measuring && len(c.Streams) == 0 {
				res.samples = append(res.samples, sample{pos: pos, rttNS: ns})
			}
		case opWake:
			r, ns, err := send(request(map[string]any{"id": t.id(), "tenant": t.tenant, "wav": c.path(o.WAV)}))
			if err != nil {
				return nil, err
			}
			got := outcome{Slug: r.ReasonSlug}
			if r.Type != "decision" || r.Accepted == nil {
				got.Status = "error:" + r.ErrorKind
			} else {
				got.Accepted = *r.Accepted
			}
			res.check(pos, expected, got)
			if measuring {
				res.samples = append(res.samples, sample{pos: pos, decision: true, rttNS: ns})
				res.decisions++
				res.audioS += float64(c.recs[o.WAV].Len()) / sampleRate
			}
		case opChunk:
			lineBuf = chunkLine(lineBuf[:0], t.id(), t.tenant, o, c)
			r, ns, err := send(lineBuf)
			if err != nil {
				return nil, err
			}
			got := outcome{Status: r.Status, Slug: r.ReasonSlug}
			if r.Type != "stream" {
				got.Status = "error:" + r.ErrorKind
			}
			if r.Accepted != nil {
				got.Accepted = *r.Accepted
			}
			res.check(pos, expected, got)
			decided := got.Status == "decided"
			if measuring {
				res.samples = append(res.samples, sample{pos: pos, decision: decided, rttNS: ns})
				res.audioS += float64(chunkSamples) / sampleRate
				if decided {
					res.decisions++
				}
			}
			if decided {
				// Each candidate is an independent wake: end the facing
				// session it may have opened.
				if _, err := control(map[string]any{"mode": "headtalk"}); err != nil {
					return nil, err
				}
			}
		}
	}
	if !measuring {
		return nil, fmt.Errorf("load phase ended during warm-up")
	}
	cpu1, err := t.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res.cpuS = cpu1 - cpu0
	return res, nil
}

func (res *loadResult) check(pos int, expected map[int]outcome, got outcome) {
	want, ok := expected[pos]
	if !ok {
		res.mismatches = append(res.mismatches, fmt.Sprintf("op %d: no reference outcome", pos))
		return
	}
	if got != want {
		res.mismatches = append(res.mismatches, fmt.Sprintf("op %d: daemon %+v, in-process %+v", pos, got, want))
	}
}

func streamID(i int) string { return "s" + strconv.Itoa(i) }

// chunkLine appends a v2 frames push to b. Samples are 16-bit
// quantized, so the shortest round-trip decimal form is exact.
func chunkLine(b []byte, id, tenant string, o op, c *corpus) []byte {
	frame := c.chunk(o)
	b = append(b, `{"v":2,"id":"`...)
	b = append(b, id...)
	b = append(b, `","tenant":"`...)
	b = append(b, tenant...)
	b = append(b, `","session":"`...)
	b = append(b, streamID(o.Stream)...)
	b = append(b, `","frames":[`...)
	for ch, x := range frame {
		if ch > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for i, v := range x {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}
