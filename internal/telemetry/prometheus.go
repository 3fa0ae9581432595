package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file renders a registry snapshot in the Prometheus text exposition
// format (version 0.0.4), the format the ops endpoint's /metrics serves.
// Metric keys like "exec.cache.hits" become "exec_cache_hits"; label sets
// survive unchanged. Families are emitted in sorted order with one # TYPE
// line each, so the output is deterministic for a given snapshot and any
// Prometheus-compatible scraper (or promtool check metrics) accepts it.

// WritePrometheus writes the snapshot in Prometheus text exposition format.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	if s == nil {
		return nil
	}
	pw := &promWriter{w: w}

	pw.family(countersOf(s.Counters), "counter", func(key string, line *strings.Builder) {
		fmt.Fprintf(line, " %d\n", s.Counters[key])
	})
	pw.family(countersOf(s.Gauges), "gauge", func(key string, line *strings.Builder) {
		fmt.Fprintf(line, " %v\n", s.Gauges[key])
	})
	pw.histograms(s)
	return pw.err
}

type promWriter struct {
	w   io.Writer
	err error
}

func (pw *promWriter) printf(format string, args ...any) {
	if pw.err != nil {
		return
	}
	_, pw.err = fmt.Fprintf(pw.w, format, args...)
}

// countersOf groups metric keys by family (the sanitized base name).
func countersOf[V any](m map[string]V) map[string][]string {
	fams := make(map[string][]string)
	for k := range m {
		base, _ := ParseKey(k)
		fams[promName(base)] = append(fams[promName(base)], k)
	}
	return fams
}

// family renders one metric family per sanitized base name: the # TYPE
// header, then every series sorted by key, with the value appended by emit.
func (pw *promWriter) family(fams map[string][]string, typ string, emit func(key string, line *strings.Builder)) {
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, fam := range names {
		keys := fams[fam]
		sort.Strings(keys)
		pw.printf("# TYPE %s %s\n", fam, typ)
		for _, k := range keys {
			_, labels := ParseKey(k)
			var line strings.Builder
			line.WriteString(fam)
			line.WriteString(promLabels(labels))
			emit(k, &line)
			pw.printf("%s", line.String())
		}
	}
}

// histograms render in the native Prometheus histogram form: cumulative
// _bucket series with le labels (including +Inf), plus _sum and _count.
func (pw *promWriter) histograms(s *Snapshot) {
	fams := countersOf(s.Histograms)
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, fam := range names {
		keys := fams[fam]
		sort.Strings(keys)
		pw.printf("# TYPE %s histogram\n", fam)
		for _, k := range keys {
			_, labels := ParseKey(k)
			h := s.Histograms[k]
			cum := uint64(0)
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				pw.printf("%s_bucket%s %d\n", fam, promLabels(labels, "le", fmt.Sprintf("%v", bound)), cum)
			}
			pw.printf("%s_bucket%s %d\n", fam, promLabels(labels, "le", "+Inf"), h.Count)
			pw.printf("%s_sum%s %v\n", fam, promLabels(labels), h.Sum)
			pw.printf("%s_count%s %d\n", fam, promLabels(labels), h.Count)
		}
	}
}

// promName sanitizes a metric base name into the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders a label block ("" when empty). extra holds appended
// key/value pairs (the histogram le label).
func promLabels(labels map[string]string, extra ...string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i := 0; i+1 < len(extra); i += 2 {
		keys = append(keys, extra[i])
	}
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		v, ok := labels[k]
		if !ok {
			for j := 0; j+1 < len(extra); j += 2 {
				if extra[j] == k {
					v = extra[j+1]
				}
			}
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promName(k))
		b.WriteString(`="`)
		b.WriteString(promEscape(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}
