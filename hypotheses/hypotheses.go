// Package hypotheses links every committed hypothesis into one importable
// registry. Each subdirectory holds a single hyp.Spec (registered from its
// init) alongside the committed FINDINGS.md that TestFindings checks
// byte-for-byte and rewrites with -update. Importing this package — as
// hintm-exp and the tests here do — is what brings the full catalogue into
// hyp.All().
package hypotheses

import (
	_ "hintm/hypotheses/capacity-retry-futility"
	_ "hintm/hypotheses/dyn-recovers-infcap"
	_ "hintm/hypotheses/fallback-lock-convoy"
	_ "hintm/hypotheses/hints-multiply-capacity"
	_ "hintm/hypotheses/hints-need-safety"
	_ "hintm/hypotheses/hints-remove-false-conflicts"
	_ "hintm/hypotheses/htm-vs-stm"
	_ "hintm/hypotheses/page-cost-lever"
	_ "hintm/hypotheses/signature-false-conflicts"
)

// Names lists the committed hypotheses; hypotheses_test.go keeps it in
// lockstep with both the registry and the directories on disk.
var Names = []string{
	"capacity-retry-futility",
	"dyn-recovers-infcap",
	"fallback-lock-convoy",
	"hints-multiply-capacity",
	"hints-need-safety",
	"hints-remove-false-conflicts",
	"htm-vs-stm",
	"page-cost-lever",
	"signature-false-conflicts",
}
