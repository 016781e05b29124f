package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"strconv"
	"testing"
)

// framesLine renders a v2 frames push the way perfbench's load
// generator does: 16-bit quantized samples in shortest round-trip form.
func framesLine(channels, samples int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 0x6672616d))
	b := []byte(`{"v":2,"id":"op-123","tenant":"kitchen","session":"s0","frames":[`)
	for ch := 0; ch < channels; ch++ {
		if ch > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for i := 0; i < samples; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			x := math.Round(rng.NormFloat64()*0.1*32768) / 32768
			b = strconv.AppendFloat(b, x, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// sameRequest reports whether two decoded requests are equal, telling
// nil from empty frames and rows and comparing samples bit for bit.
func sameRequest(a, b request) bool {
	if (a.Frames == nil) != (b.Frames == nil) || len(a.Frames) != len(b.Frames) {
		return false
	}
	for i := range a.Frames {
		ra, rb := a.Frames[i], b.Frames[i]
		if (ra == nil) != (rb == nil) || len(ra) != len(rb) {
			return false
		}
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	a.Frames, b.Frames = nil, nil
	return reflect.DeepEqual(a, b)
}

// checkAgainstJSON decodes line with dec and, when the fast path takes
// it, requires encoding/json to accept it with the same result.
func checkAgainstJSON(t *testing.T, dec *framesDecoder, line []byte) bool {
	t.Helper()
	var fast request
	if !dec.decode(line, &fast) {
		return false
	}
	var ref request
	if err := json.Unmarshal(line, &ref); err != nil {
		t.Fatalf("fast path took %q, which encoding/json rejects: %v", line, err)
	}
	if !sameRequest(fast, ref) {
		t.Fatalf("fast path decoded %q as %+v, encoding/json as %+v", line, fast, ref)
	}
	return true
}

// TestFramesDecodeTakesOrDeclines pins which lines the fast path owns.
// Whatever it takes must equal encoding/json's result; whatever it
// declines goes to encoding/json, so the wire is unchanged either way.
func TestFramesDecodeTakesOrDeclines(t *testing.T) {
	take := []string{
		string(framesLine(4, 480, 1)),
		`{"frames":[]}`,
		`{"frames":[[]]}`,
		` {"frames" : [ [ -0 , 1.5e-3 ,2E+2 ] , [ ] ] , "v" : -0 } ` + "\t\r\n",
		`{"id":"","tenant":"t","session":"~!#","v":9,"frames":[[0.1]]}`,
		`{"frames":[[1e308,-4.9e-324,123456789012345678901234567890]]}`,
		`{"v":123456789,"frames":[[0]]}`,
	}
	decline := []string{
		``,
		`null`,
		`{}`,
		`{"v":2}`,
		`{"frames":null}`,
		`{"frames":[null]}`,
		`{"frames":[[null]]}`,
		`{"frames":[[1e400]]}`,
		`{"frames":[[0x1p-2]]}`,
		`{"frames":[[+1]]}`,
		`{"frames":[[.5]]}`,
		`{"frames":[[5.]]}`,
		`{"frames":[[01]]}`,
		`{"frames":[[1e]]}`,
		`{"frames":[[-]]}`,
		`{"frames":[[NaN]]}`,
		`{"frames":[[Infinity]]}`,
		`{"frames":[[1,]]}`,
		`{"frames":[[,1]]}`,
		`{"frames":[[1]],}`,
		`{"frames":[[1]]}x`,
		`{"frames":[[1]]}{}`,
		`{"frames":[[1] [2]]}`,
		`{"frames":[[1]]`,
		`{"frames":[[1]],"frames":[[2]]}`,
		`{"id":"a","id":"b","frames":[]}`,
		`{"Frames":[[1]]}`,
		`{"wav":"x.wav","frames":[]}`,
		`{"end_session":true,"frames":[]}`,
		"{\"id\":\"a\\u0041\",\"frames\":[]}",
		`{"id":"a\"b","frames":[]}`,
		"{\"id\":\"tab\there\",\"frames\":[]}",
		"{\"id\":\"café\",\"frames\":[]}",
		`{"id":7,"frames":[]}`,
		`{"v":2.0,"frames":[]}`,
		`{"v":1e0,"frames":[]}`,
		`{"v":02,"frames":[]}`,
		`{"v":1234567890,"frames":[]}`,
		`{"v":"2","frames":[]}`,
		`{"frames":{}}`,
	}
	var dec framesDecoder
	for _, line := range take {
		if !checkAgainstJSON(t, &dec, []byte(line)) {
			t.Errorf("fast path declined %q", line)
		}
	}
	for _, line := range decline {
		if checkAgainstJSON(t, &dec, []byte(line)) {
			t.Errorf("fast path took %q", line)
		}
	}
}

// FuzzFramesRequest is the differential oracle for the fast path: for
// any line it either declines, or encoding/json accepts the line and
// decodes the same request. The decoder is first warmed on a larger
// push, so stale rows from an earlier line cannot leak into the next.
func FuzzFramesRequest(f *testing.F) {
	f.Add(framesLine(2, 8, 2))
	f.Fuzz(func(t *testing.T, line []byte) {
		var dec framesDecoder
		if !checkAgainstJSON(t, &dec, framesLine(8, 32, 3)) {
			t.Fatal("fast path declined the warm-up push")
		}
		checkAgainstJSON(t, &dec, line)
	})
}

// TestFramesDecodeAllocs pins the fast path's allocations: a warm
// decode allocates the id, tenant and session strings and nothing per
// row or sample, whatever the chunk's shape.
func TestFramesDecodeAllocs(t *testing.T) {
	for _, shape := range []struct{ channels, samples int }{{4, 480}, {8, 4800}} {
		line := framesLine(shape.channels, shape.samples, 4)
		var dec framesDecoder
		var req request
		allocs := testing.AllocsPerRun(20, func() {
			if !dec.decode(line, &req) {
				t.Fatal("fast path declined a frames push")
			}
		})
		if allocs != 3 {
			t.Errorf("%d×%d push: %.0f allocs per decode, want 3 (id, tenant, session)", shape.channels, shape.samples, allocs)
		}
	}
}

// BenchmarkFramesDecode decodes one 10 ms 4-channel chunk, 16-bit
// quantized as perfbench sends it, with encoding/json and with the
// fast path.
func BenchmarkFramesDecode(b *testing.B) {
	line := framesLine(4, 480, 5)
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		for b.Loop() {
			var req request
			if err := json.Unmarshal(line, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		var dec framesDecoder
		for b.Loop() {
			var req request
			if !dec.decode(line, &req) {
				b.Fatal("fast path declined the chunk")
			}
		}
	})
}
