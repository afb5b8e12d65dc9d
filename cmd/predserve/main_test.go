package main

import (
	"flag"
	"testing"
	"time"
)

func parse(t *testing.T, args ...string) *config {
	t.Helper()
	c, err := parseFlags(flag.NewFlagSet("predserve", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestExplicitZeroFlags: -retrain-after 0 starts a retrain as soon as
// drift fires and -shadow-err-pct 0 never trips drift, as their help
// says. serve.Options reads a zero as "default" (30s and 25%), so both
// must reach it as the negative sentinel; unset, both keep their
// defaults.
func TestExplicitZeroFlags(t *testing.T) {
	c := parse(t, "-retrain-after", "0", "-shadow-err-pct", "0")
	if c.opt.RetrainAfter >= 0 {
		t.Errorf("-retrain-after 0 gave RetrainAfter %v, want negative (immediately)", c.opt.RetrainAfter)
	}
	if c.opt.ShadowErrPct >= 0 {
		t.Errorf("-shadow-err-pct 0 gave ShadowErrPct %v, want negative (never trips)", c.opt.ShadowErrPct)
	}
	c = parse(t)
	if c.opt.RetrainAfter != 30*time.Second || c.opt.ShadowErrPct != 25 {
		t.Errorf("defaults: RetrainAfter %v ShadowErrPct %v, want 30s and 25", c.opt.RetrainAfter, c.opt.ShadowErrPct)
	}
}
