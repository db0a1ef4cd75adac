package ir

import (
	"os"
	"testing"
)

// FuzzParsePrintParse checks that the printer and parser agree: any source
// Parse accepts must print to text that parses again and re-prints byte for
// byte. Parse must return an error, never panic, on anything else.
func FuzzParsePrintParse(f *testing.F) {
	livelock, err := os.ReadFile("../../examples/livelock/livelock.tir")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(livelock))
	f.Add(handwrittenSrc)
	f.Add(buildCounterModule(f).String())
	f.Add(buildAllOpsModule(f).String())
	for _, c := range parseErrorCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		if err != nil {
			return
		}
		text := m.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("re-parse of printed module: %v\nsource:\n%s\nprinted:\n%s", err, src, text)
		}
		if got := again.String(); got != text {
			t.Fatalf("re-print differs:\n--- printed ---\n%s\n--- re-printed ---\n%s", text, got)
		}
	})
}
