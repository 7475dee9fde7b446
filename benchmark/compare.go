package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"text/tabwriter"
)

// manifest is the part of BENCHMARK.json the benchmark itself reads:
// the names it must report and the regression bound of each end-to-end
// metric.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadManifest(path string) (m manifest, err error) { return m, readJSON(path, &m) }

// comparable reports why two stamps cannot be compared, or "".
func comparable(a, b stamp) string {
	switch {
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.Seed != b.Seed:
		return fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds || a.Quick != b.Quick || a.Trace != b.Trace:
		return "run length, -quick or -trace differ"
	case !reflect.DeepEqual(a.Work, b.Work):
		return "frozen work amounts differ"
	}
	return ""
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives. One value has no spread.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / med
}

// values collects one metric of one workload over a document's runs.
func (d document) values(workload, metric string) (v []float64, failed int) {
	for _, r := range d.Workloads {
		if r.Name != workload {
			continue
		}
		if !r.Correct {
			failed++
		}
		if m, ok := r.Metrics[metric]; ok && m.Value != nil {
			v = append(v, *m.Value)
		}
	}
	return v, failed
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, the relative change, the bound and a verdict. It returns 0
// when nothing is worse, 1 when something is, 2 when the documents
// cannot be compared.
func compareFiles(pathA, pathB string, w io.Writer) int {
	man, err := loadManifest("BENCHMARK.json")
	var a, b document
	if err == nil {
		err = readJSON(pathA, &a)
	}
	if err == nil {
		err = readJSON(pathB, &b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if why := comparable(a.Stamp, b.Stamp); why != "" {
		fmt.Fprintf(os.Stderr, "benchmark: %s and %s cannot be compared: %s\n", pathA, pathB, why)
		return 2
	}
	return compareDocuments(man, a, b, w)
}

func compareDocuments(man manifest, a, b document, w io.Writer) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tchange\tbound\tspread A\tspread B\tverdict")
	worse := false
	for _, wl := range man.Workloads {
		for _, m := range man.EndToEnd {
			va, _ := a.values(wl.Name, m.Name)
			vb, failedB := b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / ma
			loss := change // how much worse B is, as a share of A
			if m.Better == "higher" {
				loss = -change
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := "ok"
			switch {
			case failedB > 0:
				verdict = "worse (failed runs)"
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case loss > m.Bound:
				verdict = "worse"
			}
			worse = worse || verdict[0] == 'w'
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				wl.Name, m.Name, ma, mb, 100*change, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	tw.Flush()
	if worse {
		return 1
	}
	return 0
}
