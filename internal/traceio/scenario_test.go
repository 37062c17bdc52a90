package traceio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestScenarioRoundTrip(t *testing.T) {
	want := tinyScenario()
	var buf bytes.Buffer
	if err := WriteScenario(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScenario(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestScenarioRejectsV1: WriteScenario has only ever written v2, so a
// version-1 stream must fail to decode.
func TestScenarioRejectsV1(t *testing.T) {
	var buf bytes.Buffer
	e := newWriter(&buf)
	e.uvarint(scenarioMagic)
	e.uvarint(1)
	if err := e.flush(); err != nil {
		t.Fatal(err)
	}
	_, err := ReadScenario(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "unsupported scenario version 1") {
		t.Fatalf("v1 stream: err = %v, want unsupported scenario version 1", err)
	}
}

func TestScenarioRejectsOutOfRangeRecord(t *testing.T) {
	bad := tinyScenario()
	bad.Recs = append(bad.Recs, ScenarioRec{Tenant: 99})
	var buf bytes.Buffer
	if err := WriteScenario(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadScenario(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("record naming a nonexistent tenant decoded without error")
	}
	bad = tinyScenario()
	bad.Recs[0].Phase = 7
	buf.Reset()
	if err := WriteScenario(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadScenario(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("record naming a nonexistent phase decoded without error")
	}
}

func TestScenarioRejectsEmptyTenants(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteScenario(&buf, &ScenarioTrace{Name: "x", Phases: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadScenario(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("tenantless scenario decoded without error")
	}
}

func TestScenarioRowsRoundTrip(t *testing.T) {
	want := []ScenarioRow{
		{Name: "a", App: "wordpress", SLO: "interactive", Weight: 2.5, Requests: 10, Blocks: 200, Instrs: 2400, Misses: 31},
		{Name: "b", App: "kafka", SLO: "batch", Weight: 1, Requests: 4, Blocks: 88, Instrs: 1100, Misses: 7},
	}
	var buf bytes.Buffer
	if err := WriteScenarioRows(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScenarioRows(bytes.NewReader(buf.Bytes()))
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
	var a, b bytes.Buffer
	if err := WriteScenario(&a, tinyScenario()); err != nil {
		t.Fatal(err)
	}
	if err := WriteScenario(&b, tinyScenario()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same scenario differ")
	}
}
