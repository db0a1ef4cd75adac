package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// expo.go is a small reader for the Prometheus text exposition format —
// the inverse of Metrics.Render. It exists for the tests that prove
// /metrics output is valid exposition: the round trip here and the
// server's declared-names gate.

// ExpoSeries is one sample line: the series name as written (histogram
// samples keep their _bucket/_sum/_count suffix), its parsed labels, and
// the value.
type ExpoSeries struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ExpoFamily groups the samples of one metric family with its HELP/TYPE
// metadata ("untyped" when no TYPE line preceded the samples).
type ExpoFamily struct {
	Name   string
	Type   string
	Help   string
	Series []ExpoSeries // in exposition order
}

// ParseText parses text exposition into families keyed by family name.
// Histogram sample suffixes (_bucket/_sum/_count) are folded into the
// family declared by their TYPE line. Malformed lines are errors — this
// parser is the validity gate for Render's output, not a lenient scraper.
func ParseText(r io.Reader) (map[string]*ExpoFamily, error) {
	fams := make(map[string]*ExpoFamily)
	fam := func(name string) *ExpoFamily {
		f, ok := fams[name]
		if !ok {
			f = &ExpoFamily{Name: name, Type: "untyped"}
			fams[name] = f
		}
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineno, err)
			}
			if kind == "" {
				continue // plain comment
			}
			f := fam(name)
			if kind == "HELP" {
				f.Help = rest
			} else {
				f.Type = rest
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		name := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(s.Name, suffix)
			if base != s.Name {
				if f, ok := fams[base]; ok && f.Type == "histogram" {
					name = base
				}
				break
			}
		}
		f := fam(name)
		f.Series = append(f.Series, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

func parseComment(line string) (kind, name, rest string, err error) {
	for _, k := range []string{"# HELP ", "# TYPE "} {
		if strings.HasPrefix(line, k) {
			body := line[len(k):]
			i := strings.IndexByte(body, ' ')
			if i <= 0 {
				return "", "", "", fmt.Errorf("malformed %s line %q", strings.TrimSpace(k), line)
			}
			return strings.TrimSpace(k[2:]), body[:i], body[i+1:], nil
		}
	}
	return "", "", "", nil
}

func parseSample(line string) (ExpoSeries, error) {
	s := ExpoSeries{}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		var err error
		s.Labels, rest, err = parseLabels(rest[i+1:])
		if err != nil {
			return s, fmt.Errorf("series %s: %w", s.Name, err)
		}
	} else {
		i := strings.IndexByte(rest, ' ')
		if i <= 0 {
			return s, fmt.Errorf("malformed sample %q", line)
		}
		s.Name = rest[:i]
		rest = rest[i:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("sample %q: %w", line, err)
	}
	s.Value = v
	if s.Name == "" {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	return s, nil
}

// parseLabels consumes `k="v",...}` and returns the labels plus the
// remainder of the line after the closing brace.
func parseLabels(in string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		in = strings.TrimLeft(in, ",")
		if len(in) == 0 {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if in[0] == '}' {
			return labels, in[1:], nil
		}
		eq := strings.IndexByte(in, '=')
		if eq <= 0 || len(in) < eq+2 || in[eq+1] != '"' {
			return nil, "", fmt.Errorf("malformed label in %q", in)
		}
		key := in[:eq]
		val := strings.Builder{}
		i := eq + 2
		for {
			if i >= len(in) {
				return nil, "", fmt.Errorf("unterminated label value for %q", key)
			}
			c := in[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(in) {
					return nil, "", fmt.Errorf("dangling escape in label %q", key)
				}
				switch in[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("bad escape \\%c in label %q", in[i+1], key)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels[key] = val.String()
		in = in[i:]
	}
}

// Histogram aggregates every _bucket/_sum/_count sample of a histogram
// family — across all label sets — into one HistSnapshot, validating
// structure on the way: per-series buckets must be cumulative and their
// le bounds ascending, and each label set's +Inf bucket must match its
// _count. This is the round-trip validity check for rendered histograms.
func (f *ExpoFamily) Histogram() (HistSnapshot, error) {
	if f.Type != "histogram" {
		return HistSnapshot{}, fmt.Errorf("family %s: type %s, not histogram", f.Name, f.Type)
	}
	type seriesAgg struct {
		les  []float64 // in exposition order
		cums []uint64
		inf  uint64
		cnt  uint64
		has  bool
	}
	byLabels := make(map[string]*seriesAgg)
	order := []string{}
	agg := func(labels map[string]string) *seriesAgg {
		parts := make([]string, 0, len(labels))
		for k, v := range labels {
			if k == "le" {
				continue
			}
			parts = append(parts, k+"="+v)
		}
		sort.Strings(parts)
		id := strings.Join(parts, ",")
		a, ok := byLabels[id]
		if !ok {
			a = &seriesAgg{}
			byLabels[id] = a
			order = append(order, id)
		}
		return a
	}
	sum := 0.0
	for _, s := range f.Series {
		a := agg(s.Labels)
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			le := s.Labels["le"]
			if le == "+Inf" {
				a.inf = uint64(s.Value)
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return HistSnapshot{}, fmt.Errorf("family %s: bad le %q", f.Name, le)
			}
			a.les = append(a.les, bound)
			a.cums = append(a.cums, uint64(s.Value))
		case strings.HasSuffix(s.Name, "_sum"):
			sum += s.Value
		case strings.HasSuffix(s.Name, "_count"):
			a.cnt = uint64(s.Value)
			a.has = true
		default:
			return HistSnapshot{}, fmt.Errorf("family %s: unexpected histogram sample %s", f.Name, s.Name)
		}
	}
	var bounds []float64
	out := HistSnapshot{Sum: sum}
	for _, id := range order {
		a := byLabels[id]
		for i := 1; i < len(a.les); i++ {
			if a.les[i] <= a.les[i-1] {
				return HistSnapshot{}, fmt.Errorf("family %s{%s}: le bounds not ascending", f.Name, id)
			}
			if a.cums[i] < a.cums[i-1] {
				return HistSnapshot{}, fmt.Errorf("family %s{%s}: buckets not cumulative", f.Name, id)
			}
		}
		if len(a.cums) > 0 && a.inf < a.cums[len(a.cums)-1] {
			return HistSnapshot{}, fmt.Errorf("family %s{%s}: +Inf below last bucket", f.Name, id)
		}
		if a.has && a.cnt != a.inf {
			return HistSnapshot{}, fmt.Errorf("family %s{%s}: _count %d != +Inf bucket %d", f.Name, id, a.cnt, a.inf)
		}
		if bounds == nil {
			bounds = a.les
			out.Bounds = bounds
			out.Buckets = make([]uint64, len(bounds)+1)
		} else if len(a.les) != len(bounds) {
			return HistSnapshot{}, fmt.Errorf("family %s: inconsistent bucket layouts across series", f.Name)
		}
		prev := uint64(0)
		for i, c := range a.cums {
			out.Buckets[i] += c - prev
			prev = c
		}
		out.Buckets[len(bounds)] += a.inf - prev
		out.Count += a.inf
	}
	return out, nil
}
