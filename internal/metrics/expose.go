package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Sample is one exposed series value, flattened for run reports.
// Histograms expand into their _sum/_count/_bucket derivatives before
// sampling, so Value is always a plain number.
type Sample struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// ID returns the series identity in Prometheus notation,
// name{k1="v1",k2="v2"} with label keys sorted, or the bare name when
// unlabeled. Two samples agree across exposition paths iff their IDs and
// values agree; the run-report/portal equality test keys on this.
func (s Sample) ID() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(s.Labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Snapshot returns every series (histograms expanded) sorted by ID.
func (r *Registry) Snapshot() []Sample {
	var out []Sample
	for _, f := range r.sortedFamilies() {
		keys := f.labelKeys
		for _, s := range f.sortedSeries() {
			labels := func(extra ...string) map[string]string {
				if len(keys) == 0 && len(extra) == 0 {
					return nil
				}
				m := make(map[string]string, len(keys)+len(extra)/2)
				for i, k := range keys {
					m[k] = s.labelVals[i]
				}
				for i := 0; i+1 < len(extra); i += 2 {
					m[extra[i]] = extra[i+1]
				}
				return m
			}
			switch {
			case s.c != nil:
				out = append(out, Sample{f.name, labels(), float64(s.c.Value())})
			case s.g != nil:
				out = append(out, Sample{f.name, labels(), float64(s.g.Value())})
			case s.fn != nil:
				out = append(out, Sample{f.name, labels(), s.fn()})
			case s.h != nil:
				cum := int64(0)
				for i, b := range s.h.bounds {
					cum += s.h.counts[i].Load()
					out = append(out, Sample{f.name + "_bucket", labels("le", formatFloat(b)), float64(cum)})
				}
				out = append(out, Sample{f.name + "_bucket", labels("le", "+Inf"), float64(s.h.Count())})
				out = append(out, Sample{f.name + "_sum", labels(), s.h.Sum()})
				out = append(out, Sample{f.name + "_count", labels(), float64(s.h.Count())})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Counters flattens the snapshot into an ID → value map, the form the
// RunReport embeds and the integration tests compare against a portal
// scrape.
func (r *Registry) Counters() map[string]float64 {
	snap := r.Snapshot()
	m := make(map[string]float64, len(snap))
	for _, s := range snap {
		m[s.ID()] = s.Value
	}
	return m
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.sortedSeries() {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	lbl := func(extra ...string) string { return renderLabels(f.labelKeys, s.labelVals, extra) }
	switch {
	case s.c != nil:
		if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, lbl(), s.c.Value()); err != nil {
			return err
		}
		if ex := s.c.Exemplar(); ex != "" {
			// A comment line: Prometheus 0.0.4 consumers and ParseText
			// skip it, scrape-debugging humans get the context.
			if _, err := fmt.Fprintf(w, "# exemplar %s%s %s\n", f.name, lbl(), escapeHelp(ex)); err != nil {
				return err
			}
		}
		return nil
	case s.g != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, lbl(), s.g.Value())
		return err
	case s.fn != nil:
		v := s.fn()
		text := formatFloat(v)
		if f.typ == typeCounter {
			text = strconv.FormatFloat(v, 'f', -1, 64) // integers, like Counter series
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, lbl(), text)
		return err
	case s.h != nil:
		cum := int64(0)
		for i, b := range s.h.bounds {
			cum += s.h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, lbl("le", formatFloat(b)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, lbl("le", "+Inf"), s.h.Count()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, lbl(), formatFloat(s.h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, lbl(), s.h.Count())
		return err
	}
	return nil
}

// renderLabels formats {k1="v1",...} from parallel key/value slices plus
// inline extra pairs; empty when there are no labels at all.
func renderLabels(keys, vals, extra []string) string {
	if len(keys) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	n := 0
	put := func(k, v string) {
		if n > 0 {
			b.WriteByte(',')
		}
		n++
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	for i, k := range keys {
		put(k, vals[i])
	}
	for i := 0; i+1 < len(extra); i += 2 {
		put(extra[i], extra[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// Handler returns an http.Handler serving the text exposition, for
// mounting at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// ParseText parses a Prometheus text exposition (as produced by
// WritePrometheus) back into an ID → value map. It exists for the
// integration test that scrapes the portal and compares against a
// RunReport; it handles only the subset this package emits.
func ParseText(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: unparsable line %q", line)
		}
		id, valStr := line[:sp], line[sp+1:]
		var v float64
		if valStr == "+Inf" {
			v = math.Inf(1)
		} else {
			var err error
			v, err = strconv.ParseFloat(valStr, 64)
			if err != nil {
				return nil, fmt.Errorf("metrics: bad value in %q: %v", line, err)
			}
		}
		out[canonicalID(id)] = v
	}
	return out, nil
}

// canonicalID re-sorts the label list inside a series ID so scrape-side
// and report-side identities compare equal regardless of emission order.
func canonicalID(id string) string {
	open := strings.IndexByte(id, '{')
	if open < 0 || !strings.HasSuffix(id, "}") {
		return id
	}
	body := id[open+1 : len(id)-1]
	parts := splitLabels(body)
	sort.Strings(parts)
	return id[:open] + "{" + strings.Join(parts, ",") + "}"
}

// splitLabels splits `k1="v1",k2="v2"` on commas outside quotes.
func splitLabels(body string) []string {
	var parts []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				parts = append(parts, body[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, body[start:])
	return parts
}
