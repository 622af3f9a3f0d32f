package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the prdrbsim CLI: with
// PRDRBSIM_CLI set, the process runs main with the arguments after "--".
func TestMain(m *testing.M) {
	if os.Getenv("PRDRBSIM_CLI") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"prdrbsim"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Out-of-range flags print one error line and exit 1 — no panic, no run.
func TestBadInputExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the CLI")
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-pattern", "uniform", "-rate", "0"}, "rate must be positive"},
		{[]string{"-pattern", "uniform", "-rate", "-5"}, "rate must be positive"},
		{[]string{"-pattern", "uniform", "-rate", "0", "-bursts", "0"}, "rate must be positive"},
		{[]string{"-heavytail", "cache", "-ht-on", "0", "-bursts", "0"}, "ON duration must be positive"},
		{[]string{"-heavytail", "cache", "-ht-plocal", "7", "-bursts", "0"}, "PLocal 7 out of [0,1]"},
		{[]string{"-pattern", "uniform", "-shards", "-3"}, "shard count must not be negative"},
	} {
		args := append([]string{"-test.run=^$", "--", "-topology", "mesh-4x4", "-duration", "20us"}, c.args...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "PRDRBSIM_CLI=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit status 1; output:\n%s", c.args, err, out)
			continue
		}
		if s := string(out); !strings.HasPrefix(s, "prdrbsim: ") || !strings.Contains(s, c.want) ||
			strings.Contains(s, "panic") {
			t.Errorf("%v: output %q, want one prdrbsim error mentioning %q", c.args, s, c.want)
		}
	}
}

func TestParseTopology(t *testing.T) {
	cases := map[string]struct {
		terms int
		ok    bool
	}{
		"mesh-8x8":  {64, true},
		"mesh-4x2":  {8, true},
		"torus-5x5": {25, true},
		"ft-4-3":    {64, true},
		"ft-2-2":    {4, true},
		"mesh-8":    {0, false},
		"mesh-axb":  {0, false},
		"ft-4":      {0, false},
		"ft-a-b":    {0, false},
		"ring-9":    {0, false},
	}
	for spec, want := range cases {
		topo, err := parseTopology(spec)
		if want.ok != (err == nil) {
			t.Errorf("%q: err = %v, want ok=%v", spec, err, want.ok)
			continue
		}
		if err == nil && topo.NumTerminals() != want.terms {
			t.Errorf("%q: %d terminals, want %d", spec, topo.NumTerminals(), want.terms)
		}
	}
}

func TestSummarize(t *testing.T) {
	mean, ci := summarize(nil)
	if mean != 0 || ci != 0 {
		t.Fatal("empty summarize wrong")
	}
	mean, ci = summarize([]float64{10})
	if mean != 10 || ci != 0 {
		t.Fatal("single-sample summarize wrong")
	}
	mean, ci = summarize([]float64{8, 12})
	if mean != 10 || ci <= 0 {
		t.Fatal("two-sample summarize wrong")
	}
	// CI formula: 1.96 * sd / sqrt(n); sd for {8,12} = 2*sqrt(2)... sd =
	// sqrt(((8-10)^2+(12-10)^2)/1) = sqrt(8).
	want := 1.96 * math.Sqrt(8) / math.Sqrt(2)
	if math.Abs(ci-want) > 1e-9 {
		t.Fatalf("ci = %v, want %v", ci, want)
	}
}

func TestRunOnceSmoke(t *testing.T) {
	topo, err := parseTopology("mesh-4x4")
	if err != nil {
		t.Fatal(err)
	}
	_, res, _, err := runOnce(topo, "drb", 1, runSpec{
		pattern: "uniform", rate: 300, bursts: 2,
		burstLen: 100_000, burstGap: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredPkts == 0 || res.AcceptedRatio != 1 {
		t.Fatalf("smoke run broken: %+v", res)
	}
	// Continuous (non-burst) mode.
	_, res2, _, err := runOnce(topo, "adaptive", 1, runSpec{
		pattern: "uniform", rate: 300, bursts: 0, duration: 200_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.DeliveredPkts == 0 {
		t.Fatal("continuous mode delivered nothing")
	}
	// Workload mode with execution time (16 ranks fit the 4x4 mesh).
	ft, err := parseTopology("ft-4-3")
	if err != nil {
		t.Fatal(err)
	}
	_, res3, exec, err := runOnce(ft, "pr-drb", 1, runSpec{workload: "sweep3d", iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if exec <= 0 || res3.DeliveredPkts == 0 {
		t.Fatal("workload mode broken")
	}
	// Unknown policy errors.
	if _, _, _, err := runOnce(topo, "bogus", 1, runSpec{pattern: "uniform", rate: 1, bursts: 1, burstLen: 1000, burstGap: 1000}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
