package main

import (
	"strconv"
	"strings"

	"dcdb/internal/metrics"
)

// metricSet is a flat view of a process's self-monitoring metrics,
// keyed by the Prometheus series name including its label set.
// Histograms appear as their _sum (in seconds for latencies) and
// _count series.
type metricSet map[string]float64

// parsePrometheus reads the text exposition the programs serve.
func parsePrometheus(text string) metricSet {
	set := metricSet{}
	for _, ln := range strings.Split(text, "\n") {
		if ln == "" || ln[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(ln, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(ln[sp+1:], 64)
		if err != nil {
			continue
		}
		set[ln[:sp]] += v
	}
	return set
}

// labelled inserts a suffix before a series' label set and appends
// extra labels, mirroring the programs' Prometheus writer.
func labelled(name, suffix, extra string) string {
	fam, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		fam, labels = name[:i], name[i+1:len(name)-1]
	}
	switch {
	case labels != "" && extra != "":
		labels += "," + extra
	case extra != "":
		labels = extra
	}
	if labels == "" {
		return fam + suffix
	}
	return fam + suffix + "{" + labels + "}"
}

// addSamples folds gathered registry samples into the set under the
// names a Prometheus scrape of the same registry would show.
func (m metricSet) addSamples(samples []metrics.Sample, extraLabels string) {
	for _, s := range samples {
		if s.Hist == nil {
			m[labelled(s.Name, "", extraLabels)] += s.Value
			continue
		}
		scale := s.Hist.Scale
		if scale == 0 {
			scale = 1
		}
		m[labelled(s.Name, "_sum", extraLabels)] += float64(s.Hist.Sum) * scale
		m[labelled(s.Name, "_count", extraLabels)] += float64(s.Hist.Count())
	}
}

// sum adds up every series of a family whose label set contains all
// the given fragments (e.g. `op="query"`).
func (m metricSet) sum(family string, labelFragments ...string) float64 {
	var total float64
next:
	for name, v := range m {
		fam := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			fam = name[:i]
		}
		if fam != family {
			continue
		}
		for _, frag := range labelFragments {
			if !strings.Contains(name, frag) {
				continue next
			}
		}
		total += v
	}
	return total
}

// minus returns m − before, series by series: the activity between two
// scrapes of cumulative counters.
func (m metricSet) minus(before metricSet) metricSet {
	out := make(metricSet, len(m))
	for k, v := range m {
		out[k] = v - before[k]
	}
	return out
}

// histogram merges every histogram sample of a family.
func histogram(samples []metrics.Sample, family string) metrics.HistogramSnapshot {
	var h metrics.HistogramSnapshot
	for _, s := range samples {
		fam := s.Name
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		if fam == family && s.Hist != nil {
			h.Merge(*s.Hist)
		}
	}
	return h
}
