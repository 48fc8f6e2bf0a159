package experiments

import (
	"testing"

	"ioguard/internal/system"
)

// TestFig7aDenseMatchesDefault: ioguard-experiments -exp fig7a -trials 3
// renders the same table byte for byte whether every system steps
// every slot or fast-forwards its idle ones. The settings are the
// command's defaults (seed 1, 3 hyper-periods, all utilizations).
func TestFig7aDenseMatchesDefault(t *testing.T) {
	render := func(builders map[string]system.Builder) string {
		points, err := caseStudy(CaseStudyConfig{VMs: 4, Trials: 3, HyperPeriods: 3, Seed: 1}, builders)
		if err != nil {
			t.Fatal(err)
		}
		return RenderCaseStudy(points, 4)
	}
	want := render(Builders())
	if got := render(denseBuilders()); got != want {
		t.Fatalf("dense table differs:\n%s\n--- default ---\n%s", got, want)
	}
}

// TestRobustDenseMatchesDefault: ioguard-experiments -exp robust
// -trials 2 -hyperperiods 2 -seed 7 renders the same table byte for
// byte dense and by default, under every fault scenario. VMs and
// utilization are the command's (4 VMs, -util 0.8).
func TestRobustDenseMatchesDefault(t *testing.T) {
	cfg := RobustnessConfig{VMs: 4, Util: 0.8, Trials: 2, HyperPeriods: 2, Seed: 7}
	render := func(builders map[string]system.Builder) string {
		points, err := robustness(cfg, builders)
		if err != nil {
			t.Fatal(err)
		}
		return RenderRobustness(points, cfg.VMs, cfg.Util)
	}
	want := render(Builders())
	if got := render(denseBuilders()); got != want {
		t.Fatalf("dense table differs:\n%s\n--- default ---\n%s", got, want)
	}
}
