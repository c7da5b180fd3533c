package obs

import (
	"io"
	"maps"
	"slices"
	"strconv"
)

// Kind is how an integer metric reads in the Prometheus exposition and how
// a fleet combines it across processes.
type Kind uint8

const (
	// Counter is a monotone count; a fleet sums it.
	Counter Kind = iota
	// Gauge is a current level (a size, a budget, a pool width); a fleet
	// sums it.
	Gauge
	// Peak is a maximum or an age; a fleet keeps the largest. It renders as
	// a gauge.
	Peak
)

// Metric declares one metric of a stats block T, once: its Prometheus
// family name and help text, its kind, and where T stores it. A table of
// these is the only place a metric is named; Merge and WriteMetrics walk
// the table, and JSON travels through T's own field tags.
//
// Exactly one locator is set. Int locates an integer metric of the given
// Kind; Hist a latency histogram; Hists a family of histograms keyed by
// the value of Label. Kind is ignored for histograms.
type Metric[T any] struct {
	Name string
	Help string
	Kind Kind
	// Seconds marks an Int held in nanoseconds, rendered in seconds.
	Seconds bool

	Int   func(*T) *int64
	Hist  func(*T) **HistRaw
	Hists func(*T) *map[string]*HistRaw
	Label string
}

// Merge folds src into dst metric by metric: counters and gauges add,
// peaks keep the larger, histograms merge bucket-wise. dst never aliases
// src's histogram memory afterwards.
func Merge[T any](table []Metric[T], dst, src *T) {
	for _, m := range table {
		switch {
		case m.Hist != nil:
			mergeHist(m.Hist(dst), *m.Hist(src))
		case m.Hists != nil:
			d := m.Hists(dst)
			for k, h := range *m.Hists(src) {
				if h == nil {
					continue
				}
				if *d == nil {
					*d = make(map[string]*HistRaw)
				}
				dh := (*d)[k]
				mergeHist(&dh, h)
				(*d)[k] = dh
			}
		case m.Kind == Peak:
			d := m.Int(dst)
			*d = max(*d, *m.Int(src))
		default:
			*m.Int(dst) += *m.Int(src)
		}
	}
}

func mergeHist(dst **HistRaw, src *HistRaw) {
	if src == nil {
		return
	}
	if *dst == nil {
		*dst = &HistRaw{}
	}
	(*dst).Merge(src)
}

// WriteMetrics renders every metric of v in the Prometheus text format,
// in table order. A labelled histogram family renders its members in
// label order, so the output is deterministic.
func WriteMetrics[T any](w io.Writer, table []Metric[T], v *T) {
	for _, m := range table {
		switch {
		case m.Hist != nil:
			writeHeader(w, m.Name, "histogram", m.Help)
			writeHistogram(w, m.Name, "", *m.Hist(v))
		case m.Hists != nil:
			writeHeader(w, m.Name, "histogram", m.Help)
			hs := *m.Hists(v)
			for _, k := range slices.Sorted(maps.Keys(hs)) {
				writeHistogram(w, m.Name, m.Label+`="`+k+`"`, hs[k])
			}
		default:
			typ := "gauge"
			if m.Kind == Counter {
				typ = "counter"
			}
			writeHeader(w, m.Name, typ, m.Help)
			x := *m.Int(v)
			value := strconv.FormatInt(x, 10)
			if m.Seconds {
				value = formatFloat(float64(x) / 1e9)
			}
			writeSample(w, m.Name, "", value)
		}
	}
}
