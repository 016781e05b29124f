package main

import (
	"testing"
)

// FuzzDecodeRequest: decodeRequest never panics, and every line yields
// exactly one of two things: a request with exactly one verb (the first
// table entry it names, admitted by its version, with exactly one of a
// node or a local handler), or one typed error line (parse or
// unsupported_version; oversized lines never reach it). A frames line
// the one-pass decoder takes decodes to the same request as
// encoding/json.
func FuzzDecodeRequest(f *testing.F) {
	for _, line := range []string{
		// One line per verb at its minimum version.
		`{"v":3,"id":"r","restore":{"version":1,"tenant":"t"}}`,
		`{"v":3,"id":"j","join":{"node":"c","addr":"127.0.0.1:1"}}`,
		`{"v":3,"id":"l","leave":"c"}`,
		`{"id":"h","health":true}`,
		`{"v":3,"id":"s","tenant":"t","snapshot":true}`,
		`{"v":5,"id":"ms","model_status":true}`,
		`{"v":5,"id":"p","promote":{"kind":"orientation","version":2}}`,
		`{"v":5,"id":"rb","rollback":"liveness"}`,
		`{"v":2,"id":"f","session":"s","frames":[[0.5,-1],[0,2e-3]]}`,
		`{"v":2,"id":"e","session":"s","end_session":true}`,
		`{"v":4,"id":"a","arrays":[{"id":"near","condition":{"Distance":1}}]}`,
		`{"id":"t","trace":true}`,
		`{"id":"o","mode":"mute"}`,
		`{"id":"c","condition":{"AngleDeg":180}}`,
		`{"id":"w","wav":"x.wav","trace":true}`,
		// A version too low, one out of range, and two verbs.
		`{"v":1,"id":"low","frames":[[0]]}`,
		`{"v":9,"id":"high","condition":{}}`,
		`{"v":5,"id":"two","health":true,"mode":"mute"}`,
		`{not json}`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var dec framesDecoder
		var req request
		v, refusal := decodeRequest(line, &dec, &req)
		if (v == nil) == (refusal == nil) {
			t.Fatalf("%q: verb %v and refusal %+v; want exactly one", line, v, refusal)
		}
		if refusal != nil {
			if refusal.Type != "error" || (refusal.ErrorKind != "parse" && refusal.ErrorKind != "unsupported_version") {
				t.Fatalf("%q: refused with %+v, want a parse or unsupported_version error", line, refusal)
			}
			return
		}
		if (v.node == nil) == (v.local == nil) {
			t.Fatalf("%q: verb %q has no single handler", line, v.fields)
		}
		version := 1
		if req.V != nil {
			version = *req.V
		}
		first := true
		for i := range verbs {
			vb := &verbs[i]
			if !vb.uses(&req) {
				continue
			}
			if first && vb != v {
				t.Fatalf("%q: served as %q, but %q comes first", line, v.fields, vb.fields)
			}
			first = false
			if version < vb.since {
				t.Fatalf("%q: version %d admitted %q, which needs %d", line, version, vb.fields, vb.since)
			}
		}
		checkAgainstJSON(t, &framesDecoder{}, line)
	})
}
