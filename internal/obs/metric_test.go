package obs

import (
	"bytes"
	"strings"
	"testing"
)

// block is a stats block with one metric of every shape.
type block struct {
	jobs, size, ageNS int64
	lat               *HistRaw
	stages            map[string]*HistRaw
}

var blockMetrics = []Metric[block]{
	{Name: "t_jobs_total", Kind: Counter, Help: "Jobs.", Int: func(b *block) *int64 { return &b.jobs }},
	{Name: "t_size", Kind: Gauge, Help: "Size.", Int: func(b *block) *int64 { return &b.size }},
	{Name: "t_age_seconds", Kind: Peak, Seconds: true, Help: "Age.", Int: func(b *block) *int64 { return &b.ageNS }},
	{Name: "t_latency_seconds", Help: "Latency.", Hist: func(b *block) **HistRaw { return &b.lat }},
	{Name: "t_stage_seconds", Help: "Stages.", Label: "stage", Hists: func(b *block) *map[string]*HistRaw { return &b.stages }},
}

func hist(ns ...int64) *HistRaw {
	var h Histogram
	for _, v := range ns {
		h.ObserveNS(v)
	}
	return h.Snapshot()
}

// TestMergeByKind: counters and gauges add, peaks keep the larger, and
// histograms — single or labelled — merge bucket-wise into fresh memory,
// including into a zero block.
func TestMergeByKind(t *testing.T) {
	a := block{jobs: 3, size: 10, ageNS: 7, lat: hist(1, 2), stages: map[string]*HistRaw{"kernel": hist(5)}}
	b := block{jobs: 4, size: 20, ageNS: 5, lat: hist(3), stages: map[string]*HistRaw{"kernel": hist(6), "hash": hist(1)}}
	var fleet block
	Merge(blockMetrics, &fleet, &a)
	Merge(blockMetrics, &fleet, &b)
	if fleet.jobs != 7 || fleet.size != 30 || fleet.ageNS != 7 {
		t.Fatalf("ints = %d/%d/%d, want 7/30/7", fleet.jobs, fleet.size, fleet.ageNS)
	}
	if fleet.lat.Count != 3 || fleet.stages["kernel"].Count != 2 || fleet.stages["hash"].Count != 1 {
		t.Fatalf("histograms = %+v / %+v", fleet.lat, fleet.stages)
	}
	fleet.lat.Merge(hist(9))
	fleet.stages["kernel"].Merge(hist(9))
	if a.lat.Count != 2 || a.stages["kernel"].Count != 1 {
		t.Fatal("merged block aliases a source's histogram")
	}
	// Absent histograms merge as nothing.
	Merge(blockMetrics, &fleet, &block{})
	if fleet.lat.Count != 4 || len(fleet.stages) != 2 {
		t.Fatalf("empty merge changed the histograms: %+v / %+v", fleet.lat, fleet.stages)
	}
}

// TestWriteMetrics: each metric renders once under its declared name and
// type, nanosecond ints in seconds, and a labelled family in label order.
func TestWriteMetrics(t *testing.T) {
	v := block{jobs: 2, size: 9, ageNS: 1_500_000_000, lat: hist(4),
		stages: map[string]*HistRaw{"kernel": hist(5), "hash": hist(1)}}
	var b bytes.Buffer
	WriteMetrics(&b, blockMetrics, &v)
	text := b.String()
	for _, want := range []string{
		"# TYPE t_jobs_total counter\nt_jobs_total 2\n",
		"# TYPE t_size gauge\nt_size 9\n",
		"# TYPE t_age_seconds gauge\nt_age_seconds 1.5\n",
		"# TYPE t_latency_seconds histogram\n",
		"t_latency_seconds_count 1\n",
		"t_stage_seconds_count{stage=\"hash\"} 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output lacks %q:\n%s", want, text)
		}
	}
	if strings.Count(text, "# TYPE t_stage_seconds histogram") != 1 {
		t.Fatalf("labelled family declared more than once:\n%s", text)
	}
	if strings.Index(text, `stage="hash"`) > strings.Index(text, `stage="kernel"`) {
		t.Fatalf("labelled family not in label order:\n%s", text)
	}
}
