package main

import (
	"flag"
	"testing"
)

func parse(t *testing.T, args ...string) *config {
	t.Helper()
	c, err := parseFlags(flag.NewFlagSet("predserve", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestExplicitZeroFlags: -shadow-err-pct 0 never trips drift, as its
// help says. serve.Options reads a zero as "default" (25%), so it must
// reach it as the negative sentinel; unset, it keeps its default.
func TestExplicitZeroFlags(t *testing.T) {
	c := parse(t, "-shadow-err-pct", "0")
	if c.opt.ShadowErrPct >= 0 {
		t.Errorf("-shadow-err-pct 0 gave ShadowErrPct %v, want negative (never trips)", c.opt.ShadowErrPct)
	}
	c = parse(t)
	if c.opt.ShadowErrPct != 25 {
		t.Errorf("default ShadowErrPct %v, want 25", c.opt.ShadowErrPct)
	}
}
