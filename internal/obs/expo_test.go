package obs

import (
	"strings"
	"testing"
)

// TestRenderExpositionRoundTrip renders a registry carrying counters,
// labeled series (with exposition-hostile label values), and histograms,
// then re-parses the output — the validity gate for /metrics.
func TestRenderExpositionRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.Counter(MetricServeRequests).Add(3)
	m.Counter(MetricServeThrottled, L("endpoint", "runs")).Inc()
	m.Counter(MetricServeThrottled, L("endpoint", "grids")).Add(2)
	weird := "we\"ird\\tag\nx"
	m.Histogram(MetricServeRequestSec, L("tag", weird), L("outcome", "sim")).Observe(0.01)
	m.Histogram(MetricServeRequestSec, L("tag", weird), L("outcome", "hit-store")).Observe(0.0001)

	var out strings.Builder
	if err := m.Render(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	fams, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("render does not parse:\n%s\nerr: %v", text, err)
	}

	f := fams[MetricServeRequests]
	if f == nil || f.Type != "counter" || len(f.Series) != 1 || f.Series[0].Value != 3 {
		t.Fatalf("serve_requests_total family: %+v", f)
	}
	if f.Help == "" {
		t.Error("declared family rendered without HELP text")
	}
	thr := fams[MetricServeThrottled]
	if thr == nil || len(thr.Series) != 2 {
		t.Fatalf("serve_throttled_total series: %+v", thr)
	}
	sum := 0.0
	for _, s := range thr.Series {
		sum += s.Value
	}
	if sum != 3 {
		t.Errorf("serve_throttled_total sum = %v, want 3", sum)
	}

	hist := fams[MetricServeRequestSec]
	if hist == nil || hist.Type != "histogram" {
		t.Fatalf("histogram family missing: %+v", hist)
	}
	for _, s := range hist.Series {
		if strings.HasSuffix(s.Name, "_bucket") && s.Labels["tag"] != weird {
			t.Fatalf("label escaping did not round-trip: %q", s.Labels["tag"])
		}
	}
	hs, err := hist.Histogram()
	if err != nil {
		t.Fatalf("histogram aggregation: %v", err)
	}
	if hs.Count != 2 {
		t.Errorf("aggregated count = %d, want 2", hs.Count)
	}

	// Determinism: a second render is byte-identical.
	var again strings.Builder
	if err := m.Render(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != text {
		t.Error("second render differs")
	}
}

// Unlabeled series must keep rendering as plain `name value` lines — the
// smoke scripts awk for them and older tests substring-match them.
func TestRenderUnlabeledLineFormat(t *testing.T) {
	m := NewMetrics()
	m.Counter(MetricSimRuns).Add(7)
	var out strings.Builder
	if err := m.Render(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\nrunner_sim_runs_total 7\n") &&
		!strings.HasSuffix(out.String(), "runner_sim_runs_total 7\n") {
		t.Errorf("unlabeled line format changed:\n%s", out.String())
	}
}

func TestSeriesLabelOrderCanonical(t *testing.T) {
	m := NewMetrics()
	m.Counter("x_total", L("b", "2"), L("a", "1")).Inc()
	m.Counter("x_total", L("a", "1"), L("b", "2")).Inc()
	if got := m.Value("x_total", L("b", "2"), L("a", "1")); got != 2 {
		t.Errorf("label order forked the series: value = %d, want 2", got)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"name{le=\"0.1\" 3\n",  // unterminated label set
		"name{k=\"v\\q\"} 1\n", // bad escape
		"name notanumber\n",    // bad value
		"# TYPE lonely\n",      // malformed TYPE
		"{k=\"v\"} 1\n",        // missing name
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) accepted malformed input", bad)
		}
	}
}

func TestDeclaredNames(t *testing.T) {
	if _, ok := Lookup(MetricSimRuns); !ok {
		t.Fatal("runner_sim_runs_total not declared")
	}
	for _, d := range Declared() {
		if d.Name == "" || d.Help == "" {
			t.Errorf("incomplete declaration: %+v", d)
		}
		switch d.Type {
		case TypeCounter, TypeGauge, TypeHistogram:
		default:
			t.Errorf("%s: unknown type %q", d.Name, d.Type)
		}
		if strings.HasSuffix(d.Name, "_total") != (d.Type == TypeCounter) {
			t.Errorf("%s: _total suffix and counter type must coincide (type %s)", d.Name, d.Type)
		}
	}
}
