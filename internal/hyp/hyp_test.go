package hyp

import (
	"strings"
	"testing"

	"hintm/internal/harness"
	"hintm/internal/sim"
)

// validSpec returns a structurally complete spec for mutation tests.
func validSpec() *Spec {
	return &Spec{
		Name:     "test-spec",
		Claim:    "a claim",
		Base:     harness.Request{Workload: "ssca2"},
		Variable: "htm",
		Levels: []Level{
			{Name: "control"},
			{Name: "treatment", Apply: func(q *harness.Request) { q.HTM = sim.HTMInfCap }},
		},
		Seeds: []uint64{1, 2},
		Metrics: []Metric{
			{Name: "cycles", Format: "%.0f", Extract: func(r *sim.Result) float64 { return float64(r.Cycles) }},
		},
		Judge: func(e *Evaluation) Outcome { return Outcome{Verdict: Supported, Reason: "ok"} },
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	breakages := []struct {
		name  string
		mut   func(*Spec)
		wants string
	}{
		{"no-name", func(s *Spec) { s.Name = "" }, "no name"},
		{"no-claim", func(s *Spec) { s.Claim = "" }, "no claim"},
		{"no-workload", func(s *Spec) { s.Base.Workload = "" }, "no workload"},
		{"no-variable", func(s *Spec) { s.Variable = "" }, "swept variable"},
		{"one-level", func(s *Spec) { s.Levels = s.Levels[:1] }, "control and at least one treatment"},
		{"no-seeds", func(s *Spec) { s.Seeds = nil }, "no seeds"},
		{"zero-seed", func(s *Spec) { s.Seeds = []uint64{1, 0} }, "seed 0"},
		{"no-metrics", func(s *Spec) { s.Metrics = nil }, "no metrics"},
		{"no-judge", func(s *Spec) { s.Judge = nil }, "no judge"},
		{"unnamed-level", func(s *Spec) { s.Levels[1].Name = "" }, "has no name"},
		{"dup-level", func(s *Spec) { s.Levels[1].Name = "control" }, "duplicate level"},
		{"bad-metric", func(s *Spec) { s.Metrics[0].Format = "" }, "incomplete"},
	}
	for _, tt := range breakages {
		t.Run(tt.name, func(t *testing.T) {
			s := validSpec()
			tt.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tt.wants) {
				t.Errorf("error %q does not mention %q", err, tt.wants)
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	s := validSpec()
	s.Name = "zz-registry-probe"
	Register(s)
	got, err := ByName(s.Name)
	if err != nil || got != s {
		t.Fatalf("ByName: %v, %v", got, err)
	}
	if _, err := ByName("no-such-hypothesis"); err == nil {
		t.Error("unknown name accepted")
	}
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Errorf("All not sorted: %s >= %s", all[i-1].Name, all[i].Name)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate Register did not panic")
			}
		}()
		dup := validSpec()
		dup.Name = s.Name
		Register(dup)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid Register did not panic")
			}
		}()
		bad := validSpec()
		bad.Claim = ""
		Register(bad)
	}()
}

func TestVerdictStrings(t *testing.T) {
	for v, want := range map[Verdict]string{
		Supported:    "SUPPORTED",
		Refuted:      "REFUTED",
		Inconclusive: "INCONCLUSIVE",
		Verdict(9):   "verdict(9)",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
	if (Outcome{}).Verdict != Inconclusive {
		t.Error("zero outcome must be INCONCLUSIVE")
	}
}
