package traceio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestScenarioRoundTrip(t *testing.T) {
	want := tinyScenario()
	got, err := DecodeScenario(AppendScenario(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestScenarioRejectsV1: AppendScenario has only ever written v2, so a
// version-1 stream must fail to decode.
func TestScenarioRejectsV1(t *testing.T) {
	var e writer
	e.uvarint(scenarioMagic)
	e.uvarint(1)
	_, err := DecodeScenario(e.b)
	if err == nil || !strings.Contains(err.Error(), "unsupported scenario version 1") {
		t.Fatalf("v1 stream: err = %v, want unsupported scenario version 1", err)
	}
}

func TestScenarioRejectsOutOfRangeRecord(t *testing.T) {
	bad := tinyScenario()
	bad.Recs = append(bad.Recs, ScenarioRec{Tenant: 99})
	if _, err := DecodeScenario(AppendScenario(nil, bad)); err == nil {
		t.Fatal("record naming a nonexistent tenant decoded without error")
	}
	bad = tinyScenario()
	bad.Recs[0].Phase = 7
	if _, err := DecodeScenario(AppendScenario(nil, bad)); err == nil {
		t.Fatal("record naming a nonexistent phase decoded without error")
	}
}

func TestScenarioRejectsEmptyTenants(t *testing.T) {
	if _, err := DecodeScenario(AppendScenario(nil, &ScenarioTrace{Name: "x", Phases: []float64{1}})); err == nil {
		t.Fatal("tenantless scenario decoded without error")
	}
}

func TestScenarioRowsRoundTrip(t *testing.T) {
	want := []ScenarioRow{
		{Name: "a", App: "wordpress", SLO: "interactive", Weight: 2.5, Requests: 10, Blocks: 200, Instrs: 2400, Misses: 31},
		{Name: "b", App: "kafka", SLO: "batch", Weight: 1, Requests: 4, Blocks: 88, Instrs: 1100, Misses: 7},
	}
	got, err := DecodeScenarioRows(AppendScenarioRows(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestScenarioWriteDeterminism: encoding the same trace twice yields
// byte-identical streams (the artifact-cache identity property).
func TestScenarioWriteDeterminism(t *testing.T) {
	if !bytes.Equal(AppendScenario(nil, tinyScenario()), AppendScenario(nil, tinyScenario())) {
		t.Fatal("two encodings of the same scenario differ")
	}
}
