// Scenario traces (trace v2): the record/replay format for composed
// multi-tenant workloads (internal/traffic).
//
// A scenario trace captures everything needed to replay a composed
// "production day" bit-for-bit: the tenant population (preset, SLO class,
// request-rate weight, per-tenant seed), the arrival-process parameters,
// the diurnal phase curve, and the realized request schedule — one record
// per request carrying the tenant index, the diurnal phase it arrived in,
// and the quantized gap (in microticks of virtual time) since the previous
// arrival. Gaps and phases are recorded for analysis and reproducibility;
// the cycle-level simulator consumes only the tenant order.
//
// Version 2 is the only framing ever written; ReadScenario rejects any other.
package traceio

import (
	"fmt"
	"io"
)

// Magic numbers for the scenario formats.
const (
	scenarioMagic     = 0x49535452 // "ISTR" — composed trace
	scenarioRowsMagic = 0x49535257 // "ISRW" — per-tenant report rows
	scenarioV2        = 2
)

// ScenarioTenant is one tenant of a composed scenario: a named instance of
// an application preset with a request-rate weight and an SLO class.
type ScenarioTenant struct {
	Name   string  // unique within the scenario (e.g. "wordpress#2")
	App    string  // workload preset name
	SLO    string  // SLO class label (e.g. "interactive", "batch")
	Weight float64 // relative request rate (normalized by the composer)
	Seed   uint64  // seeds this tenant's arrival-sampler stream
}

// ScenarioRec is one request arrival: which tenant issued it, which diurnal
// phase it arrived in, and the virtual-time gap since the previous arrival
// across all tenants, quantized to microticks (1e-6 virtual time units).
type ScenarioRec struct {
	Tenant uint32
	Phase  uint32
	Gap    uint64
}

// ScenarioTrace is a fully composed scenario: the spec parameters that
// produced it plus the realized arrival schedule. It is the unit of
// record/replay — `ispy -scenario-record` writes one, `ispy -scenario
// <file>` replays one.
type ScenarioTrace struct {
	Name         string
	Seed         uint64
	Arrival      string    // "poisson", "gamma", "weibull"
	ArrivalShape float64   // shape parameter for gamma/weibull; 0 for poisson
	Phases       []float64 // diurnal rate multipliers, one per phase of the day
	Tenants      []ScenarioTenant
	Recs         []ScenarioRec
}

// ScenarioRow is one tenant's (or one SLO class's) row of a scenario
// report: request/block/instruction/miss totals attributed from the
// simulator's measured window. Rows are persisted next to the run's Stats
// in the artifact cache so warm replays reproduce the full report without
// re-simulating.
type ScenarioRow struct {
	Name     string
	App      string
	SLO      string
	Weight   float64
	Requests uint64
	Blocks   uint64
	Instrs   uint64
	Misses   uint64
}

// WriteScenario serializes a scenario trace in the v2 framing.
func WriteScenario(w io.Writer, t *ScenarioTrace) error {
	e := newWriter(w)
	e.uvarint(scenarioMagic)
	e.uvarint(scenarioV2)
	e.str(t.Name)
	e.uvarint(t.Seed)
	e.str(t.Arrival)
	e.float(t.ArrivalShape)
	e.uvarint(uint64(len(t.Phases)))
	for _, p := range t.Phases {
		e.float(p)
	}
	e.uvarint(uint64(len(t.Tenants)))
	for i := range t.Tenants {
		tn := &t.Tenants[i]
		e.str(tn.Name)
		e.str(tn.App)
		e.str(tn.SLO)
		e.float(tn.Weight)
		e.uvarint(tn.Seed)
	}
	e.uvarint(uint64(len(t.Recs)))
	for i := range t.Recs {
		r := &t.Recs[i]
		e.uvarint(uint64(r.Tenant))
		e.uvarint(uint64(r.Phase))
		e.uvarint(r.Gap)
	}
	return e.flush()
}

// ReadScenario deserializes a scenario trace written by WriteScenario.
func ReadScenario(r io.Reader) (*ScenarioTrace, error) {
	d := newReader(r)
	if m := d.uvarint(); d.err == nil && m != scenarioMagic {
		return nil, fmt.Errorf("traceio: bad scenario magic %#x", m)
	}
	if v := d.uvarint(); d.err == nil && v != scenarioV2 {
		return nil, fmt.Errorf("traceio: unsupported scenario version %d", v)
	}
	t := &ScenarioTrace{Name: d.str(), Seed: d.uvarint(), Arrival: d.str(), ArrivalShape: d.float()}
	np := d.count(1<<12, "scenario phase")
	t.Phases = make([]float64, 0, capHint(np, 256))
	for i := 0; i < np && d.err == nil; i++ {
		t.Phases = append(t.Phases, d.float())
	}
	nt := d.count(1<<12, "scenario tenant")
	t.Tenants = make([]ScenarioTenant, 0, capHint(nt, 256))
	for i := 0; i < nt && d.err == nil; i++ {
		t.Tenants = append(t.Tenants, ScenarioTenant{
			Name: d.str(), App: d.str(), SLO: d.str(), Weight: d.float(), Seed: d.uvarint(),
		})
	}
	nr := d.count(1<<26, "scenario record")
	t.Recs = make([]ScenarioRec, 0, capHint(nr, 1<<16))
	for i := 0; i < nr && d.err == nil; i++ {
		rec := ScenarioRec{Tenant: uint32(d.uvarint()), Phase: uint32(d.uvarint()), Gap: d.uvarint()}
		if d.err == nil && int(rec.Tenant) >= len(t.Tenants) {
			return nil, fmt.Errorf("traceio: scenario record %d names tenant %d of %d",
				i, rec.Tenant, len(t.Tenants))
		}
		if d.err == nil && len(t.Phases) > 0 && int(rec.Phase) >= len(t.Phases) {
			return nil, fmt.Errorf("traceio: scenario record %d names phase %d of %d",
				i, rec.Phase, len(t.Phases))
		}
		t.Recs = append(t.Recs, rec)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(t.Tenants) == 0 {
		return nil, fmt.Errorf("traceio: scenario has no tenants")
	}
	return t, nil
}

// WriteScenarioRows serializes the per-tenant report rows of a scenario run.
func WriteScenarioRows(w io.Writer, rows []ScenarioRow) error {
	e := newWriter(w)
	e.uvarint(scenarioRowsMagic)
	e.uvarint(scenarioV2)
	e.uvarint(uint64(len(rows)))
	for i := range rows {
		r := &rows[i]
		e.str(r.Name)
		e.str(r.App)
		e.str(r.SLO)
		e.float(r.Weight)
		e.uvarint(r.Requests)
		e.uvarint(r.Blocks)
		e.uvarint(r.Instrs)
		e.uvarint(r.Misses)
	}
	return e.flush()
}

// ReadScenarioRows deserializes rows written by WriteScenarioRows.
func ReadScenarioRows(r io.Reader) ([]ScenarioRow, error) {
	d := newReader(r)
	if m := d.uvarint(); d.err == nil && m != scenarioRowsMagic {
		return nil, fmt.Errorf("traceio: bad scenario rows magic %#x", m)
	}
	if v := d.uvarint(); d.err == nil && v != scenarioV2 {
		return nil, fmt.Errorf("traceio: unsupported scenario rows version %d", v)
	}
	n := d.count(1<<12, "scenario row")
	rows := make([]ScenarioRow, 0, capHint(n, 256))
	for i := 0; i < n && d.err == nil; i++ {
		rows = append(rows, ScenarioRow{
			Name:     d.str(),
			App:      d.str(),
			SLO:      d.str(),
			Weight:   d.float(),
			Requests: d.uvarint(),
			Blocks:   d.uvarint(),
			Instrs:   d.uvarint(),
			Misses:   d.uvarint(),
		})
	}
	if d.err != nil {
		return nil, d.err
	}
	return rows, nil
}
