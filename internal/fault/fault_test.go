package fault

import (
	"errors"
	"testing"
)

func TestParsePlanRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"spurious=0.01",
		"spurious=0.25,spurious-window=8",
		"panic-tx=500",
		"spurious=0.01,spurious-window=8,panic-tx=500",
	}
	for _, spec := range specs {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		// Round-trip: String() must parse back to the same plan.
		p2, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q.String()=%q): %v", spec, p.String(), err)
		}
		if p != p2 {
			t.Errorf("round trip %q: %+v != %+v", spec, p, p2)
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"spurious",           // no value
		"spurious=x",         // bad float
		"spurious=1.5",       // out of [0,1]
		"spurious=-0.1",      // negative probability
		"spurious=NaN",       // not a probability at all
		"spurious-window=-5", // negative knob
		"frobnicate=1",       // unknown key
		"storm=0.001",        // removed fault class
		"inval-delay=200",    // removed fault class
		"inval-burst=8",      // removed fault class
		"spurious=0.1,,",     // empty entry
		"panic-tx=notanint",  // bad uint
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted", spec)
		}
	}
}

func TestPlanEnabled(t *testing.T) {
	if (Plan{}).Enabled() {
		t.Error("zero plan enabled")
	}
	if (Plan{SpuriousWindow: 8}).Enabled() {
		t.Error("window alone should not enable the plan")
	}
	for _, p := range []Plan{
		{SpuriousProb: 0.1},
		{PanicTx: 1},
	} {
		if !p.Enabled() {
			t.Errorf("%+v not enabled", p)
		}
	}
}

// Engines with the same (plan, seed) must make identical decisions, and
// different seeds must diverge — the property campaign replay rests on.
func TestEngineDeterminism(t *testing.T) {
	plan := Plan{SpuriousProb: 0.3, SpuriousWindow: 4}
	drawSeq := func(seed uint64) []bool {
		e := NewEngine(plan, seed, 4)
		var out []bool
		for i := 0; i < 256; i++ {
			ctx := i % 4
			e.TxBegun(ctx)
			for j := 0; j < 4; j++ {
				out = append(out, e.SpuriousAbortNow(ctx))
			}
		}
		return out
	}
	a, b := drawSeq(7), drawSeq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := drawSeq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical decision sequences")
	}
}

// A zero probability must not consume randomness, and arming panic-tx must
// not perturb the spurious stream.
func TestDisabledClassConsumesNoRandomness(t *testing.T) {
	z := NewEngine(Plan{PanicTx: 1 << 40}, 3, 1)
	before := z.streams[0]
	for i := 0; i < 128; i++ {
		z.TxBegun(0)
		z.SpuriousAbortNow(0)
	}
	if z.streams[0] != before {
		t.Fatal("a zero spurious probability advanced the stream")
	}

	seq := func(plan Plan) []bool {
		e := NewEngine(plan, 3, 1)
		var out []bool
		for i := 0; i < 128; i++ {
			e.TxBegun(0)
			fired := false
			for j := 0; j < 64 && !fired; j++ {
				fired = e.SpuriousAbortNow(0)
			}
			out = append(out, fired)
		}
		return out
	}
	only := seq(Plan{SpuriousProb: 0.5})
	withPanic := seq(Plan{SpuriousProb: 0.5, PanicTx: 1 << 40})
	for i := range only {
		if only[i] != withPanic[i] {
			t.Fatalf("spurious stream diverged at tx %d", i)
		}
	}
}

func TestSpuriousProbabilityBounds(t *testing.T) {
	// p=1 arms every transaction; p=0 arms none.
	e := NewEngine(Plan{SpuriousProb: 1}, 1, 1)
	for i := 0; i < 50; i++ {
		e.TxBegun(0)
		fired := false
		for j := 0; j < 64; j++ {
			if e.SpuriousAbortNow(0) {
				fired = true
				break
			}
		}
		if !fired {
			t.Fatalf("tx %d: p=1 did not fire within the window", i)
		}
		// A fired abort disarms the attempt: no second abort follows.
		for j := 0; j < 64; j++ {
			if e.SpuriousAbortNow(0) {
				t.Fatalf("tx %d: fired twice in one attempt", i)
			}
		}
	}

	z := NewEngine(Plan{SpuriousProb: 0}, 1, 1)
	for i := 0; i < 50; i++ {
		z.TxBegun(0)
		if z.SpuriousAbortNow(0) {
			t.Fatal("p=0 fired")
		}
	}
}

func TestSpuriousWindowBoundsCountdown(t *testing.T) {
	e := NewEngine(Plan{SpuriousProb: 1, SpuriousWindow: 4}, 9, 1)
	for i := 0; i < 100; i++ {
		e.TxBegun(0)
		fired := -1
		for j := 0; j < 8; j++ {
			if e.SpuriousAbortNow(0) {
				fired = j
				break
			}
		}
		if fired < 0 || fired >= 4 {
			t.Fatalf("tx %d: abort fired at access %d, want within [0,4)", i, fired)
		}
	}
}

func TestPanicTx(t *testing.T) {
	e := NewEngine(Plan{PanicTx: 3}, 1, 1)
	e.TxBegun(0)
	e.TxBegun(0)
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("no panic at PanicTx")
		}
		ip, ok := v.(InjectedPanic)
		if !ok {
			t.Fatalf("panic value %T, want InjectedPanic", v)
		}
		if ip.Tx != 3 {
			t.Errorf("panic at tx %d, want 3", ip.Tx)
		}
		var err error = ip
		var target InjectedPanic
		if !errors.As(err, &target) {
			t.Error("InjectedPanic not matchable with errors.As")
		}
	}()
	e.TxBegun(0)
}
