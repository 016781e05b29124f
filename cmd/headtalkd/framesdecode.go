package main

import "strconv"

// framesDecoder is a connection's one-pass decoder for the v2 frames
// push, the only request line a client sends every 10 ms:
//
//	{"v":2,"id":"…","tenant":"…","session":"…","frames":[[…],…]}
//
// It parses samples straight into rows reused from line to line, where
// encoding/json would scan the ~40 KB line twice and allocate a fresh
// [][]float64 per chunk. decode declines every line it does not fully
// own, and the caller then falls back to json.Unmarshal, so error text
// and error kinds stay those of encoding/json. It declines:
//   - a key other than v, id, tenant, session and frames, or a repeated
//     key, or a line without frames
//   - a string holding an escape, a control byte or a non-ASCII byte
//   - null, and any value of the wrong JSON type
//   - a v that is not a plain integer
//   - a sample that is not JSON number grammar or overflows float64
//   - anything after the closing brace but whitespace
//
// Accepted samples come from strconv.ParseFloat on the number's exact
// bytes, as in encoding/json, so they are bit-identical.
type framesDecoder struct {
	rows [][]float64
	v    int
}

// decode fills req from line and reports true, or leaves req untouched
// and reports false. On success req.Frames and req.V point into the
// decoder: they stay valid only until the next decode, so a caller that
// keeps them past the synchronous handling of this line must copy.
func (d *framesDecoder) decode(line []byte, req *request) bool {
	if d.rows == nil {
		// "frames":[] must decode to an empty, non-nil slice, which
		// routes to the stream handler like encoding/json's result.
		d.rows = make([][]float64, 0, 8)
	}
	p := jsonScanner{b: line}
	p.space()
	if !p.eat('{') {
		return false
	}
	const (
		seenV = 1 << iota
		seenID
		seenTenant
		seenSession
		seenFrames
	)
	var (
		seen                uint8
		id, tenant, session []byte
		frames              [][]float64
	)
	for {
		p.space()
		key, ok := p.str()
		if !ok {
			return false
		}
		p.space()
		if !p.eat(':') {
			return false
		}
		p.space()
		var bit uint8
		switch string(key) {
		case "v":
			bit = seenV
			d.v, ok = p.integer()
		case "id":
			bit = seenID
			id, ok = p.str()
		case "tenant":
			bit = seenTenant
			tenant, ok = p.str()
		case "session":
			bit = seenSession
			session, ok = p.str()
		case "frames":
			bit = seenFrames
			frames, ok = d.frames(&p)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		p.space()
		if p.eat('}') {
			break
		}
		if !p.eat(',') {
			return false
		}
	}
	p.space()
	if p.i != len(p.b) || seen&seenFrames == 0 {
		return false
	}
	*req = request{ID: string(id), Tenant: string(tenant), Session: string(session), Frames: frames}
	if seen&seenV != 0 {
		req.V = &d.v
	}
	return true
}

// frames parses the [[…],…] array into the decoder's reused rows.
func (d *framesDecoder) frames(p *jsonScanner) ([][]float64, bool) {
	if !p.eat('[') {
		return nil, false
	}
	rows := d.rows[:0]
	p.space()
	if p.eat(']') {
		return rows, true
	}
	for {
		p.space()
		if !p.eat('[') {
			return nil, false
		}
		// Reuse the row this slot held on an earlier line.
		var row []float64
		if len(rows) < cap(rows) {
			row = rows[:len(rows)+1][len(rows)][:0]
		}
		if row == nil {
			// An empty inner array decodes non-nil, as in encoding/json.
			row = []float64{}
		}
		p.space()
		if !p.eat(']') {
			for {
				p.space()
				x, ok := p.number()
				if !ok {
					return nil, false
				}
				row = append(row, x)
				p.space()
				if p.eat(']') {
					break
				}
				if !p.eat(',') {
					return nil, false
				}
			}
		}
		rows = append(rows, row)
		p.space()
		if p.eat(']') {
			break
		}
		if !p.eat(',') {
			return nil, false
		}
	}
	d.rows = rows[:0]
	return rows, true
}

// jsonScanner walks one JSON line byte by byte.
type jsonScanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (p *jsonScanner) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (p *jsonScanner) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII without escapes and returns
// its contents, which alias the line.
func (p *jsonScanner) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return s, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// maxIntDigits keeps integer() clear of overflow.
const maxIntDigits = 9

// integer consumes -?(0|[1-9][0-9]*) of at most maxIntDigits digits.
// A fraction or exponent is left unconsumed, so the caller's delimiter
// check declines it (encoding/json rejects it for an int field).
func (p *jsonScanner) integer() (int, bool) {
	neg := p.eat('-')
	start := p.i
	n := 0
	for p.i < len(p.b) && isDigit(p.b[p.i]) && p.i-start < maxIntDigits {
		n = n*10 + int(p.b[p.i]-'0')
		p.i++
	}
	digits := p.i - start
	if digits == 0 || (digits > 1 && p.b[start] == '0') || (p.i < len(p.b) && isDigit(p.b[p.i])) {
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, true
}

// number consumes one JSON number, checking its grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? while it finds the
// end, and parses it with strconv.ParseFloat as encoding/json does.
// ParseFloat alone would also take "+1", ".5", "0x1p-2", "Inf" and
// "NaN"; an out-of-range number is declined, since encoding/json
// reports it as an error.
func (p *jsonScanner) number() (float64, bool) {
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	x, err := strconv.ParseFloat(string(b[p.i:i]), 64)
	if err != nil {
		return 0, false
	}
	p.i = i
	return x, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// copyFrames returns a deep copy of frames in one backing array. nil
// stays nil, row by row too.
func copyFrames(frames [][]float64) [][]float64 {
	if frames == nil {
		return nil
	}
	n := 0
	for _, row := range frames {
		n += len(row)
	}
	flat := make([]float64, 0, n)
	out := make([][]float64, len(frames))
	for i, row := range frames {
		if row != nil {
			start := len(flat)
			flat = append(flat, row...)
			out[i] = flat[start:len(flat):len(flat)]
		}
	}
	return out
}
