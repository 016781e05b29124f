package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -compare reports, per benchmark and tag, the median of every record
// under that tag and how many records there were.
func TestCompareReportsMedianAndCount(t *testing.T) {
	lines := []string{
		`{"tag":"old","pkg":"p","name":"BenchmarkX","iterations":50,"ns_per_op":100,"allocs_per_op":2}`,
		`{"tag":"old","pkg":"p","name":"BenchmarkX","iterations":50,"ns_per_op":300,"allocs_per_op":2}`,
		`{"tag":"old","pkg":"p","name":"BenchmarkX","iterations":50,"ns_per_op":200,"allocs_per_op":4}`,
		`{"tag":"other","pkg":"p","name":"BenchmarkX","iterations":50,"ns_per_op":1}`,
		`{"tag":"new","pkg":"p","name":"BenchmarkX","iterations":50,"ns_per_op":90,"allocs_per_op":0}`,
		`{"tag":"new","pkg":"p","name":"BenchmarkX","iterations":50,"ns_per_op":110,"allocs_per_op":0}`,
		`{"tag":"new","pkg":"p","name":"BenchmarkY","iterations":50,"ns_per_op":7}`,
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runCompare(&out, path, "old,new"); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(rows) != 3 {
		t.Fatalf("want header and two rows, got:\n%s", out.String())
	}
	// X: old median of 100/300/200 is 200 over 3 records, new median of
	// 90/110 is 100 over 2; allocs medians 2 and 0.
	if got, want := strings.Fields(rows[1]), []string{"X", "200", "3", "100", "2", "-50.0%", "2", "0"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("X row = %q, want fields %q", rows[1], want)
	}
	if got := strings.Fields(rows[2]); len(got) < 5 || got[0] != "Y" || got[2] != "0" || got[3] != "7" || got[4] != "1" {
		t.Errorf("Y row = %q, want Y only in new with 1 record", rows[2])
	}
}
