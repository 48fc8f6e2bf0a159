package main

import (
	"strings"
	"testing"

	"ioguard/internal/cliflags"
)

// TestTrialsBelowOneRejected: -trials 0 and -trials -3 are errors, not
// a silent fall back to the sweep's default trial count.
func TestTrialsBelowOneRejected(t *testing.T) {
	for _, exp := range []string{"fig7a", "robust", "ablation"} {
		for _, trials := range []int{0, -3} {
			err := run(exp, trials, 1, 4, 0.8, 1, false, cliflags.Resolved{Workers: 1})
			if err == nil || !strings.Contains(err.Error(), "-trials") {
				t.Errorf("-exp %s -trials %d: err = %v, want a -trials error", exp, trials, err)
			}
		}
	}
}
