package traffic

import (
	"bytes"
	"testing"

	"ispy/internal/traceio"
)

func mustSpec(t testing.TB, s string) *Spec {
	t.Helper()
	spec, err := ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestComposeDeterminism is the acceptance-criteria pin: the same (seed,
// spec) composes a byte-identical trace v2 artifact.
func TestComposeDeterminism(t *testing.T) {
	const spec = "name=d;seed=1234;requests=400;arrival=weibull:0.6;day=0.5,1.5;zipf=1.0;tenants=wordpress,kafka,tomcat"
	a := traceio.AppendScenario(nil, Compose(mustSpec(t, spec)))
	b := traceio.AppendScenario(nil, Compose(mustSpec(t, spec)))
	if !bytes.Equal(a, b) {
		t.Fatal("same (seed, spec) composed different traces")
	}
	// A different seed must change the realized schedule.
	other := "name=d;seed=1235;requests=400;arrival=weibull:0.6;day=0.5,1.5;zipf=1.0;tenants=wordpress,kafka,tomcat"
	if bytes.Equal(a, traceio.AppendScenario(nil, Compose(mustSpec(t, other)))) {
		t.Fatal("different seeds composed identical traces")
	}
}

func TestComposeShapesFollowWeights(t *testing.T) {
	spec := mustSpec(t, "seed=5;requests=4000;tenants=wordpress:weight=3,kafka:weight=1")
	tr := Compose(spec)
	if len(tr.Recs) != 4000 {
		t.Fatalf("composed %d records, want 4000", len(tr.Recs))
	}
	var counts [2]int
	for _, r := range tr.Recs {
		counts[r.Tenant]++
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 2.5 || ratio > 3.6 {
		t.Fatalf("request ratio %v (counts %v), want ~3", ratio, counts)
	}
}

func TestComposePhasesAdvance(t *testing.T) {
	spec := mustSpec(t, "seed=9;requests=600;day=1,1,1;tenants=wordpress")
	tr := Compose(spec)
	seen := map[uint32]bool{}
	for _, r := range tr.Recs {
		if int(r.Phase) >= len(spec.Phases) {
			t.Fatalf("record phase %d out of range", r.Phase)
		}
		seen[r.Phase] = true
	}
	// With aggregate rate Requests/len(Phases) per unit, the schedule spans
	// about one 3-phase day: all phases should be visited.
	for p := uint32(0); p < 3; p++ {
		if !seen[p] {
			t.Fatalf("phase %d never visited; phases seen: %v", p, seen)
		}
	}
}

func TestComposeGapsMonotoneInfo(t *testing.T) {
	tr := Compose(mustSpec(t, "seed=3;requests=200;tenants=kafka"))
	var nonzero int
	for _, r := range tr.Recs {
		if r.Gap > 0 {
			nonzero++
		}
	}
	if nonzero < 150 {
		t.Fatalf("only %d/200 records carry a nonzero gap", nonzero)
	}
}

func TestSpecFromTraceRoundTrip(t *testing.T) {
	spec := mustSpec(t, "name=rt;seed=77;requests=100;arrival=gamma:2;day=0.5,1.5;tenants=wordpress:slo=interactive,kafka")
	tr := Compose(spec)
	got, err := SpecFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.Material() != spec.Material() {
		t.Fatalf("spec round trip drifted:\n%s\n%s", got.Material(), spec.Material())
	}
	// A trace naming an unknown app must fail with the tenant named.
	tr.Tenants[1].App = "httpd"
	if _, err := SpecFromTrace(tr); err == nil {
		t.Fatal("unknown app in trace accepted")
	}
}
