package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus writes every family in Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by
// label string, histograms expanded into cumulative _bucket/_sum/_count
// lines. Values are read live; a scrape concurrent with writers sees
// each metric at some point during the scrape, which is the usual
// Prometheus consistency model.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sers := make([]*series, len(keys))
		gfns := make([]func() float64, len(keys))
		for i, k := range keys {
			sers[i] = f.series[k]
			gfns[i] = sers[i].gfn // snapshot under the lock (GaugeFunc races otherwise)
		}
		help, kind := f.help, f.kind
		r.mu.Unlock()
		if len(sers) == 0 {
			continue // described but never used
		}
		if help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, kind)
		for i, s := range sers {
			writeSeries(&b, f.name, keys[i], kind, s, gfns[i])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSeries(b *strings.Builder, name, labels string, kind metricKind, s *series, gfn func() float64) {
	switch kind {
	case kindCounter:
		writeSample(b, name, labels, "", strconv.FormatInt(s.ctr.Value(), 10))
	case kindGauge:
		v := s.gauge.Value()
		if gfn != nil {
			v = gfn()
		}
		writeSample(b, name, labels, "", formatFloat(v))
	case kindHistogram:
		h := s.hist
		cum := h.Cumulative()
		for i, bound := range h.bounds {
			le := `le="` + formatFloat(bound) + `"`
			writeSample(b, name+"_bucket", joinLabels(labels, le), "", strconv.FormatInt(cum[i], 10))
		}
		writeSample(b, name+"_bucket", joinLabels(labels, `le="+Inf"`), "", strconv.FormatInt(cum[len(cum)-1], 10))
		writeSample(b, name+"_sum", labels, "", formatFloat(h.Sum()))
		writeSample(b, name+"_count", labels, "", strconv.FormatInt(h.Count(), 10))
	}
}

func writeSample(b *strings.Builder, name, labels, suffix, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "," + extra
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
