package obs

import (
	"fmt"
	"io"
	"runtime/debug"
	"strconv"
	"sync"
)

// Prometheus text-format exposition, hand-rolled so /metrics needs no
// dependency. Conventions: counters end in _total, durations are
// histograms in seconds, HELP/TYPE appear once per family, and stage
// breakdowns share one family with a stage="" label.

// writeHeader emits the # HELP / # TYPE pair for a metric family.
func writeHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeSample emits one series. labels is either empty or a comma-joined
// list like `stage="kernel"` (no surrounding braces).
func writeSample(w io.Writer, name, labels, value string) {
	fmt.Fprintf(w, "%s%s %s\n", name, wrapLabels(labels), value)
}

// writeHistogram emits the _bucket/_sum/_count series for one histogram,
// with le boundaries in seconds. Only occupied buckets get a line (plus
// the mandatory +Inf), keeping a 252-bin layout compact on the wire; the
// cumulative counts are still well-formed because le values stay
// ascending.
func writeHistogram(w io.Writer, name, labels string, r *HistRaw) {
	d := r.dense()
	var cum int64
	for i, n := range d {
		if n == 0 {
			continue
		}
		cum += n
		le := formatFloat(float64(UpperBoundNS(i)) / 1e9)
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, joinLabels(labels), le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, joinLabels(labels), cum)
	var sum float64
	if r != nil {
		sum = float64(r.SumNS) / 1e9
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, wrapLabels(labels), formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, wrapLabels(labels), cum)
}

func wrapLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func joinLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteBuildInfo emits the build-identity gauge both binaries serve: a
// constant 1 whose labels carry BuildInfo.
func WriteBuildInfo(w io.Writer) {
	rev, dirty := BuildInfo()
	writeHeader(w, "mmlp_build_info", "gauge", "Build identity (constant 1; identity in the labels).")
	writeSample(w, "mmlp_build_info", `revision="`+rev+`",dirty="`+strconv.FormatBool(dirty)+`"`, "1")
}

var (
	buildOnce  sync.Once
	buildRev   = "unknown"
	buildDirty bool
)

// BuildInfo returns the VCS revision and dirty flag stamped into the
// binary by the Go toolchain ("unknown"/false when built without VCS
// metadata, e.g. from a source tarball or with -buildvcs=false).
func BuildInfo() (revision string, dirty bool) {
	buildOnce.Do(func() {
		info, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				if s.Value != "" {
					buildRev = s.Value
				}
			case "vcs.modified":
				buildDirty = s.Value == "true"
			}
		}
	})
	return buildRev, buildDirty
}
