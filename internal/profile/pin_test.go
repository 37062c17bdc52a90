package profile_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/traceio"
	"ispy/internal/workload"
)

// TestCollectProfilePinned pins the serialized profile (execution counts,
// cycles, edges, miss sites and every sampled history) of two apps at the
// quick configuration's headline budget (500k instructions measured after
// 250k of warmup) and of two budgets that reach the histories' edge cases:
// verilator at the default budget (1.5M after 300k), where 47 sites
// overflow their reservoir, and tomcat with no warmup, where 36 samples
// hold fewer than 32 entries.
func TestCollectProfilePinned(t *testing.T) {
	for _, c := range []struct {
		name, app       string
		measure, warmup uint64
		want            string
	}{
		{"tomcat", "tomcat", 500_000, 250_000, "991baed0e24d1b2603360c0ddb5dc5160f7f89bc86fe2e0fd36b4412b464a182"},
		{"verilator", "verilator", 500_000, 250_000, "64388dc5f15237541bbecf363d5db2ee4dd77a040043a84bbf709d1a4407bfb5"},
		{"verilator-default", "verilator", 1_500_000, 300_000, "d23131548e38808abf6204fb1a57e2e42b7b5ce558487dcf67e1a929273d46e4"},
		{"tomcat-nowarmup", "tomcat", 500_000, 0, "a324f53f9ab7530bda48ea0c7fc7824882ed4b31a7eddbfdbf7a152b365c16cb"},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			w := workload.Preset(c.app)
			scfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
			scfg.MaxInstrs, scfg.WarmupInstrs = c.measure, c.warmup
			var buf bytes.Buffer
			p := profile.Collect(w, workload.DefaultInput(w), scfg)
			if err := traceio.WriteProfile(&buf, traceio.ProfileDataOf(p)); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("profile digest = %s, want %s", got, c.want)
			}
		})
	}
}
