package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, per workload and end-to-end metric, the value in
// each of two -out files, how much worse b is than a, and the bound. It
// returns 1 when some metric of b is worse than a's by more than its bound
// (any rise at all, for failed_frac), 2 when a file cannot be used.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadDocument(pathA)
	if err == nil {
		var b document
		if b, err = loadDocument(pathB); err == nil {
			return compareDocs(w, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: -compare: %v\n", err)
	return 2
}

func loadDocument(path string) (document, error) {
	var d document
	buf, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(buf, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func compareDocs(w io.Writer, a, b document) int {
	inB := map[string]result{}
	for _, r := range b.Workloads {
		inB[r.Name] = r
	}
	code := 0
	fmt.Fprintf(w, "%-26s %-24s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, ra := range a.Workloads {
		rb, ok := inB[ra.Name]
		if !ok || ra.EndToEnd == nil || rb.EndToEnd == nil {
			fmt.Fprintf(w, "%-26s has no end-to-end block in both files\n", ra.Name)
			code = 1
			continue
		}
		for _, d := range append([]metricDef{failedFrac}, endToEndDefs...) {
			va, vb := ra.EndToEnd[d.name].Value, rb.EndToEnd[d.name].Value
			worse := vb - va
			if d.higher {
				worse = va - vb
			}
			if va != 0 {
				worse /= va
			}
			verdict := ""
			if worse > d.bound {
				verdict = "  BREACH"
				code = 1
			}
			fmt.Fprintf(w, "%-26s %-24s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				ra.Name, d.name, va, vb, 100*worse, 100*d.bound, verdict)
		}
	}
	return code
}
