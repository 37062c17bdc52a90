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

// TestCollectProfilePinned pins the serialized profile of two apps at the
// quick configuration's headline budget (500k instructions measured after
// 250k of warmup): execution counts, cycles, edges, miss sites and every
// sampled history.
func TestCollectProfilePinned(t *testing.T) {
	for app, want := range map[string]string{
		"tomcat":    "991baed0e24d1b2603360c0ddb5dc5160f7f89bc86fe2e0fd36b4412b464a182",
		"verilator": "64388dc5f15237541bbecf363d5db2ee4dd77a040043a84bbf709d1a4407bfb5",
	} {
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			w := workload.Preset(app)
			scfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
			scfg.MaxInstrs, scfg.WarmupInstrs = 500_000, 250_000
			var buf bytes.Buffer
			p := profile.Collect(w, workload.DefaultInput(w), scfg)
			if err := traceio.WriteProfile(&buf, traceio.ProfileDataOf(p)); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("profile digest = %s, want %s", got, want)
			}
		})
	}
}
