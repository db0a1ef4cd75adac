package harness

import (
	"context"
	"encoding/json"
	"io"
)

// Export is the machine-readable bundle of every figure's data, for
// downstream plotting without re-running the simulator.
type Export struct {
	Options struct {
		Scale      string `json:"scale"`
		LargeScale string `json:"largeScale"`
		Seed       uint64 `json:"seed"`
	} `json:"options"`
	Fig1 []Fig1Row    `json:"fig1"`
	Fig4 []SweepRow   `json:"fig4"`
	Fig5 []Fig5Row    `json:"fig5"`
	Fig6 []Fig6Series `json:"fig6"`
	Fig7 []SweepRow   `json:"fig7"`
	Fig8 []SweepRow   `json:"fig8"`
}

// ExportAll runs every figure and serializes the raw rows as indented JSON.
func (r *Runner) ExportAll(ctx context.Context, w io.Writer) error {
	var ex Export
	ex.Options.Scale = r.opts.Scale.String()
	ex.Options.LargeScale = r.opts.LargeScale.String()
	ex.Options.Seed = r.opts.Seed
	var err error
	if ex.Fig1, err = r.Fig1(ctx); err != nil {
		return err
	}
	if ex.Fig4, err = r.Fig4(ctx); err != nil {
		return err
	}
	if ex.Fig5, err = r.Fig5(ctx); err != nil {
		return err
	}
	if ex.Fig6, err = r.Fig6(ctx); err != nil {
		return err
	}
	if ex.Fig7, err = r.Fig7(ctx); err != nil {
		return err
	}
	if ex.Fig8, err = r.Fig8(ctx); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&ex)
}
