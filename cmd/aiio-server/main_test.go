package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  map[string]string
		// bad names the flag the error must blame; empty means valid.
		bad string
	}{
		{"defaults", map[string]string{}, ""},
		{"perfbench diagnosis workloads", map[string]string{"models": "m", "joblog-dir": "jl"}, ""},
		{"perfbench ingest-retrain", map[string]string{"models": "m", "joblog-dir": "jl",
			"retrain-after": "96", "drift-psi": "5", "drift-error-ratio": "1000"}, ""},
		{"lifecycle drill", map[string]string{"joblog-dir": "jl", "drift-psi": "0.5", "drift-min-samples": "100",
			"canary-holdout": "20", "rollback-ratio": "2", "retrain-fast": "true",
			"retrain-models": "lightgbm,catboost", "retrain-window": "256", "retrain-minibatch": "64"}, ""},
		{"replication", map[string]string{"peers": "http://a,http://b", "sync-interval": "300ms"}, ""},
		{"coalescing tuned", map[string]string{"coalesce-window": "5ms", "coalesce-max": "8"}, ""},
		{"breakers tuned", map[string]string{"breaker-threshold": "3", "breaker-cooldown": "1m"}, ""},

		{"rollback without drift", map[string]string{"joblog-dir": "jl", "rollback-ratio": "2"}, "rollback-ratio"},
		{"rollback-watch without drift", map[string]string{"rollback-watch": "50"}, "rollback-watch"},
		{"drift-min-samples without drift", map[string]string{"drift-min-samples": "10"}, "drift-min-samples"},
		{"drift-min-errors without drift", map[string]string{"drift-min-errors": "10"}, "drift-min-errors"},
		{"drift-window without drift", map[string]string{"drift-window": "10"}, "drift-window"},
		{"drift-error-ratio with drift off", map[string]string{"drift-psi": "0", "drift-error-ratio": "2"}, "drift-error-ratio"},
		{"canary without drift", map[string]string{"joblog-dir": "jl", "canary-holdout": "20"}, "canary-holdout"},
		{"retrain without joblog", map[string]string{"retrain-after": "10"}, "retrain-after"},
		{"retrain-models without joblog", map[string]string{"retrain-models": "lightgbm"}, "retrain-models"},
		{"warm-start without joblog", map[string]string{"warm-start": "false"}, "warm-start"},
		{"warm-budget without joblog", map[string]string{"warm-budget": "0.5"}, "warm-budget"},
		{"ingest-inflight without joblog", map[string]string{"ingest-inflight": "4"}, "ingest-inflight"},
		{"sync-interval without peers", map[string]string{"sync-interval": "1s"}, "sync-interval"},
		{"coalesce-max with window 0", map[string]string{"coalesce-window": "0s", "coalesce-max": "8"}, "coalesce-max"},
		{"breaker-cooldown with threshold 0", map[string]string{"breaker-threshold": "0", "breaker-cooldown": "1m"}, "breaker-cooldown"},
	} {
		err := validateFlags(tc.set)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.bad != "" && err == nil:
			t.Errorf("%s: accepted, want -%s refused", tc.name, tc.bad)
		case tc.bad != "" && !strings.HasPrefix(err.Error(), "-"+tc.bad+" "):
			t.Errorf("%s: error %q does not blame -%s", tc.name, err, tc.bad)
		}
	}
}
