// Command benchjson converts `go test -bench` output into
// machine-readable JSON Lines so benchmark runs can be committed and
// diffed across PRs (see BENCH_pr3.json and the README's benchmarking
// section).
//
// It reads benchmark output on stdin, echoes it unchanged to stdout
// (so it tees transparently into a pipeline), and appends one JSON
// record per benchmark result line to the -out file:
//
//	go test -run xxx -bench . -benchmem ./... | benchjson -tag pr4 -out BENCH_pr4.json
//
// Records carry the benchmark name (CPU-count suffix stripped), the
// enclosing package, iterations, ns/op, -benchmem's B/op and allocs/op
// when present, and any custom b.ReportMetric units.
//
// With -compare tagA,tagB it instead reads the -out file and prints a
// per-benchmark delta table between the two tags (ns/op and allocs/op,
// negative deltas are improvements). Each side is the median of every
// record for that (pkg, name, tag), printed with the record count, so
// repeated runs (go test -count, or appended re-runs) sharpen the
// comparison instead of the last one replacing the rest:
//
//	benchjson -compare pr8-pre,pr8 -out BENCH_pr8.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

type record struct {
	Tag         string             `json:"tag,omitempty"`
	Pkg         string             `json:"pkg,omitempty"`
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	out := flag.String("out", "", "JSON Lines output file (required)")
	tag := flag.String("tag", "", "tag stored on every record (e.g. pr3, pr3-baseline)")
	appendOut := flag.Bool("append", false, "append to -out instead of truncating")
	compare := flag.String("compare", "", "tagA,tagB: diff two tags in the -out file instead of recording")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -out is required")
		os.Exit(2)
	}
	if *compare != "" {
		if err := runCompare(os.Stdout, *out, *compare); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	mode := os.O_CREATE | os.O_WRONLY
	if *appendOut {
		mode |= os.O_APPEND
	} else {
		mode |= os.O_TRUNC
	}
	f, err := os.OpenFile(*out, mode, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	enc := json.NewEncoder(f)

	var pkg string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		rec, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		rec.Tag = *tag
		rec.Pkg = pkg
		if err := enc.Encode(rec); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseBenchLine parses one `BenchmarkName-8  N  12.3 ns/op  ...` line.
func parseBenchLine(line string) (record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return record{}, false
	}
	rec := record{Name: stripCPUSuffix(fields[0]), Iterations: iters}
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return record{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			rec.NsPerOp = val
			sawNs = true
		case "B/op":
			v := val
			rec.BytesPerOp = &v
		case "allocs/op":
			v := val
			rec.AllocsPerOp = &v
		default:
			if rec.Metrics == nil {
				rec.Metrics = map[string]float64{}
			}
			rec.Metrics[unit] = val
		}
	}
	return rec, sawNs
}

// runCompare prints a per-benchmark delta table between two tags in a
// JSON Lines record file, comparing the median of each side's records.
func runCompare(w io.Writer, path, spec string) error {
	tagA, tagB, ok := strings.Cut(spec, ",")
	if !ok || tagA == "" || tagB == "" {
		return fmt.Errorf("-compare wants tagA,tagB, got %q", spec)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	type key struct{ pkg, name string }
	byTag := map[string]map[key][]record{tagA: {}, tagB: {}}
	var order []key
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return fmt.Errorf("parsing %s: %v", path, err)
		}
		m, want := byTag[rec.Tag]
		if !want {
			continue
		}
		k := key{rec.Pkg, rec.Name}
		if _, seen := m[k]; !seen {
			if _, other := byTag[otherTag(rec.Tag, tagA, tagB)][k]; !other {
				order = append(order, k)
			}
		}
		m[k] = append(m[k], rec)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(byTag[tagA]) == 0 {
		return fmt.Errorf("no records tagged %q in %s", tagA, path)
	}
	if len(byTag[tagB]) == 0 {
		return fmt.Errorf("no records tagged %q in %s", tagB, path)
	}

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\t%s ns/op\tn\t%s ns/op\tn\tdelta\tallocs %s\tallocs %s\n", tagA, tagB, tagA, tagB)
	for _, k := range order {
		a, b := summarize(byTag[tagA][k]), summarize(byTag[tagB][k])
		name := strings.TrimPrefix(k.name, "Benchmark")
		switch {
		case a.n > 0 && b.n > 0:
			fmt.Fprintf(tw, "%s\t%.0f\t%d\t%.0f\t%d\t%+.1f%%\t%s\t%s\n",
				name, a.ns, a.n, b.ns, b.n, 100*(b.ns-a.ns)/a.ns, allocStr(a.allocs), allocStr(b.allocs))
		case a.n > 0:
			fmt.Fprintf(tw, "%s\t%.0f\t%d\t-\t0\t(only in %s)\t%s\t-\n", name, a.ns, a.n, tagA, allocStr(a.allocs))
		default:
			fmt.Fprintf(tw, "%s\t-\t0\t%.0f\t%d\t(only in %s)\t-\t%s\n", name, b.ns, b.n, tagB, allocStr(b.allocs))
		}
	}
	return tw.Flush()
}

// summary is one side of a comparison: the median ns/op and allocs/op
// over n records (allocs nil when no record carried -benchmem).
type summary struct {
	ns     float64
	allocs *float64
	n      int
}

func summarize(recs []record) summary {
	s := summary{n: len(recs)}
	if s.n == 0 {
		return s
	}
	ns := make([]float64, 0, len(recs))
	var allocs []float64
	for _, r := range recs {
		ns = append(ns, r.NsPerOp)
		if r.AllocsPerOp != nil {
			allocs = append(allocs, *r.AllocsPerOp)
		}
	}
	s.ns = median(ns)
	if len(allocs) > 0 {
		m := median(allocs)
		s.allocs = &m
	}
	return s
}

// median sorts v in place and returns its middle value (the mean of the
// two middle values for an even count).
func median(v []float64) float64 {
	sort.Float64s(v)
	mid := len(v) / 2
	if len(v)%2 == 1 {
		return v[mid]
	}
	return (v[mid-1] + v[mid]) / 2
}

func otherTag(tag, a, b string) string {
	if tag == a {
		return b
	}
	return a
}

func allocStr(v *float64) string {
	if v == nil {
		return "-"
	}
	return strconv.FormatFloat(*v, 'f', -1, 64)
}

// stripCPUSuffix removes the trailing -GOMAXPROCS from a benchmark
// name (Benchmark names themselves never end in -<digits>).
func stripCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
