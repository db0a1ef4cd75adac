package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics is a tiny registry of named int64 counters, gauges, and latency
// histograms shared by the scheduler, the result store, and the serving
// layer. It exists so `hintm-served /metrics` has one deterministic place
// to read from: every component increments named metrics here, and Render
// writes Prometheus text exposition — `# HELP`/`# TYPE` headers from the
// declarations in names.go, series in sorted order, histogram buckets
// cumulative and ascending.
//
// Metrics may carry labels (L("outcome", "sim")); the unlabeled form
// is the common case and renders as plain `name value` lines, so awk-style
// scrapers keep working. A nil *Metrics is the disabled registry: Counter
// and Histogram return nil handles whose methods are no-ops, so
// instrumentation sites need no branching.
type Metrics struct {
	mu    sync.Mutex
	vals  map[string]*Metric
	hists map[string]*histSeries
}

type histSeries struct {
	name   string // family name
	labels string // rendered label pairs without braces ("" when unlabeled)
	h      *Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{vals: make(map[string]*Metric), hists: make(map[string]*histSeries)}
}

// Label is one name/value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Metric is one named value. Use Inc/Add for counters and Set/Add for
// gauges; the registry does not distinguish the two beyond the declared
// type in names.go (`*_total` counters, bare-name gauges).
type Metric struct {
	v atomic.Int64
}

// Inc adds one.
func (m *Metric) Inc() { m.Add(1) }

// Add adds delta (negative deltas are how gauges shrink).
func (m *Metric) Add(delta int64) {
	if m == nil {
		return
	}
	m.v.Add(delta)
}

// Set stores an absolute value.
func (m *Metric) Set(v int64) {
	if m == nil {
		return
	}
	m.v.Store(v)
}

// Value reads the current value (0 on the nil no-op metric).
func (m *Metric) Value() int64 {
	if m == nil {
		return 0
	}
	return m.v.Load()
}

// Counter returns the named metric series, registering it on first use.
// Labels select a series within the family; no labels is the bare series.
// Safe for concurrent use; on a nil registry it returns the nil no-op
// metric.
func (m *Metrics) Counter(name string, labels ...Label) *Metric {
	if m == nil {
		return nil
	}
	id := seriesID(name, labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.vals[id]
	if !ok {
		c = &Metric{}
		m.vals[id] = c
	}
	return c
}

// Histogram returns the named histogram series with the default latency
// bounds, registering it on first use. On a nil registry it returns the
// nil no-op histogram.
func (m *Metrics) Histogram(name string, labels ...Label) *Histogram {
	if m == nil {
		return nil
	}
	id := seriesID(name, labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	hs, ok := m.hists[id]
	if !ok {
		hs = &histSeries{name: name, labels: renderLabels(labels), h: NewHistogram(DefLatencyBounds())}
		m.hists[id] = hs
	}
	return hs.h
}

// Value reads the named metric series without registering it. Labels must
// match the series exactly.
func (m *Metrics) Value(name string, labels ...Label) int64 {
	if m == nil {
		return 0
	}
	id := seriesID(name, labels)
	m.mu.Lock()
	c := m.vals[id]
	m.mu.Unlock()
	return c.Value()
}

// Snapshot copies every counter/gauge series' current value, keyed by the
// exposition series id (`name` or `name{k="v",...}`).
func (m *Metrics) Snapshot() map[string]int64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.vals))
	for id, c := range m.vals {
		out[id] = c.Value()
	}
	return out
}

// seriesID renders the exposition identity of a series: the family name,
// plus `{k="v",...}` with label keys sorted when labels are present.
func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + renderLabels(labels) + "}"
}

// renderLabels renders label pairs sorted by key, values escaped per the
// exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// familyOf extracts the family name from a series id.
func familyOf(id string) string {
	if i := strings.IndexByte(id, '{'); i >= 0 {
		return id[:i]
	}
	return id
}

// Render writes the registry in Prometheus text exposition format:
// families in sorted-name order, each with its declared `# HELP`/`# TYPE`
// header (undeclared families render as `untyped` — the hygiene test in
// names_test.go keeps the serving stack free of those), series within a
// family sorted by label set, histogram buckets cumulative with ascending
// `le` bounds plus `_sum` and `_count`. Deterministic for a deterministic
// sequence of updates, like every artifact this package produces.
func (m *Metrics) Render(w io.Writer) error {
	if m == nil {
		return nil
	}
	type family struct {
		lines []string      // counter/gauge series lines
		hists []*histSeries // histogram series (snapshot under lock below)
	}
	snaps := make(map[*histSeries]HistSnapshot)
	fams := make(map[string]*family)
	fam := func(name string) *family {
		f, ok := fams[name]
		if !ok {
			f = &family{}
			fams[name] = f
		}
		return f
	}
	m.mu.Lock()
	for id, c := range m.vals {
		f := fam(familyOf(id))
		f.lines = append(f.lines, fmt.Sprintf("%s %d", id, c.Value()))
	}
	for _, hs := range m.hists {
		f := fam(hs.name)
		f.hists = append(f.hists, hs)
		snaps[hs] = hs.h.Snapshot()
	}
	m.mu.Unlock()

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		def, ok := Lookup(name)
		if !ok {
			def = MetricDef{Name: name, Type: "untyped", Help: "(undeclared)"}
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, def.Help, name, def.Type); err != nil {
			return err
		}
		sort.Strings(f.lines)
		for _, line := range f.lines {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
		sort.Slice(f.hists, func(i, j int) bool { return f.hists[i].labels < f.hists[j].labels })
		for _, hs := range f.hists {
			if err := renderHist(w, hs, snaps[hs]); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderHist writes one histogram series: cumulative buckets in ascending
// le order, the +Inf bucket, then _sum and _count.
func renderHist(w io.Writer, hs *histSeries, s HistSnapshot) error {
	bucket := func(le string, cum uint64) error {
		labels := `le="` + le + `"`
		if hs.labels != "" {
			labels = hs.labels + "," + labels
		}
		_, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", hs.name, labels, cum)
		return err
	}
	cum := uint64(0)
	for i, bound := range s.Bounds {
		cum += s.Buckets[i]
		if err := bucket(formatFloat(bound), cum); err != nil {
			return err
		}
	}
	if err := bucket("+Inf", s.Count); err != nil {
		return err
	}
	suffix := ""
	if hs.labels != "" {
		suffix = "{" + hs.labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", hs.name, suffix, formatFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", hs.name, suffix, s.Count)
	return err
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
