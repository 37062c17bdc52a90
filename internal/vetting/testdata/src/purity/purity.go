// Package purity exercises the response-purity pass: impure readings
// (wall-clock calls, operational-state counters) flowing into response
// bodies and renderer output, plus the waived and sanctioned shapes. Each
// violating case stores into its own Resp field — taint is tracked per
// field, first arrival wins — and the clean cases are verified by the
// absence of findings.
package purity

import (
	"fmt"
	"time"

	"fixture/purecnt"
)

// Resp is the response body (fixtureConfig.PuritySinkTypes).
type Resp struct {
	Val   uint64 // pure payload: derived from the request only
	Stamp int64  // clock-into-body target
	Count uint64 // counter-snapshot target
	Debug int64  // waived diagnostic timestamp
}

// Build assembles a response from the request value alone: the pure
// baseline no case should flag.
func Build(req uint64) *Resp {
	return &Resp{Val: req * 2}
}

// Stamped copies the wall clock into the body.
func Stamped(req uint64) *Resp {
	r := Build(req)
	r.Stamp = time.Now().UnixNano() // want `impure value reaches response field Resp.Stamp`
	return r
}

// Snap copies an operational-state snapshot into the body.
func Snap(req uint64, c *purecnt.Counters) *Resp {
	r := Build(req)
	r.Count = c.Snapshot() // want `impure value reaches response field Resp.Count`
	return r
}

// DebugStamp records a deliberate diagnostic timestamp; the arrival is
// waived with a reason.
func DebugStamp(req uint64) *Resp {
	r := Build(req)
	r.Debug = time.Now().UnixNano() //ispy:pure diagnostic timestamp, stripped before golden comparison
	return r
}

// Render renders a report for golden comparison
// (fixtureConfig.PurityRenderers); folding the clock into it breaks
// warm-vs-cold identity.
func Render(r *Resp) string {
	return fmt.Sprintf("val=%d at %d", r.Val, time.Now().Unix()) // want `impure value reaches the result of renderer fixture/purity.Render`
}

// Stat is the operational-status body: a sink type like Resp, but its one
// writer is the sanctioned publisher below, so nothing fires.
type Stat struct {
	Uptime int64
}

// Statusz publishes operational state (fixtureConfig.PuritySanctioned):
// impure arrivals inside its body are the point of the endpoint.
func Statusz(c *purecnt.Counters) *Stat {
	return &Stat{Uptime: time.Now().Unix() + int64(c.Snapshot())}
}
