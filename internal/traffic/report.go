package traffic

import (
	"ispy/internal/lbr"
	"ispy/internal/sim"
	"ispy/internal/traceio"
	"ispy/internal/workload"
)

// TenantRow is one tenant's (or SLO class's) report row. It is exactly the
// persisted artifact type, so rows flow into the cache without conversion.
type TenantRow = traceio.ScenarioRow

// Collector attributes a simulation run's activity to tenants through the
// simulator's hook events. Hooks fire only inside the measured window, on
// exactly the blocks the kernel executes, so rows built here agree with the
// run's Stats — unlike executor-side counters, which can differ by how far
// batching over-reads the source.
//
// The same collector tables serve baseline and prefetch-injected runs:
// injection never alters block structure, so merged block IDs coincide.
type Collector struct {
	rows     []TenantRow
	tenantOf []int32 // merged block ID -> tenant index
	winstrs  []uint32
	endReq   []bool
}

// NewCollector builds the per-block attribution tables for a world.
func NewCollector(w *World) *Collector {
	nb := len(w.Prog.Blocks)
	c := &Collector{
		rows:     make([]TenantRow, len(w.Tenants)),
		tenantOf: make([]int32, nb),
		winstrs:  make([]uint32, nb),
		endReq:   make([]bool, nb),
	}
	for ti, t := range w.Tenants {
		c.rows[ti] = TenantRow{
			Name:   t.Spec.Name,
			App:    t.Spec.App,
			SLO:    t.Spec.SLO,
			Weight: t.Spec.Weight,
		}
		for b := 0; b < t.NumBlocks; b++ {
			g := t.BlockOff + b
			c.tenantOf[g] = int32(ti)
			c.endReq[g] = t.W.Flow[b].Kind == workload.FlowEndRequest
			var n uint32
			for _, in := range t.W.Prog.Blocks[b].Instrs {
				if !in.Kind.IsPrefetch() {
					n++
				}
			}
			c.winstrs[g] = n
		}
	}
	return c
}

// Hooks returns simulator hooks that attribute measured-window blocks,
// workload instructions, completed requests, and L1I demand misses to
// tenants.
func (c *Collector) Hooks() *sim.Hooks {
	return &sim.Hooks{
		OnBlock: func(block int, cycle uint64, l *lbr.LBR) {
			r := &c.rows[c.tenantOf[block]]
			r.Blocks++
			r.Instrs += uint64(c.winstrs[block])
			if c.endReq[block] {
				r.Requests++
			}
		},
		OnMiss: func(block int, delta int32, cycle uint64, l *lbr.LBR) {
			c.rows[c.tenantOf[block]].Misses++
		},
	}
}

// Rows returns a copy of the accumulated per-tenant rows.
func (c *Collector) Rows() []TenantRow {
	return append([]TenantRow(nil), c.rows...)
}

// SLORows aggregates tenant rows by SLO class, in first-appearance order.
// The aggregate row's Name is the class; Weight sums the members'.
func SLORows(rows []TenantRow) []TenantRow {
	idx := make(map[string]int, len(rows))
	var out []TenantRow
	for i := range rows {
		r := &rows[i]
		j, ok := idx[r.SLO]
		if !ok {
			j = len(out)
			idx[r.SLO] = j
			out = append(out, TenantRow{Name: r.SLO, SLO: r.SLO})
		}
		a := &out[j]
		a.Weight += r.Weight
		a.Requests += r.Requests
		a.Blocks += r.Blocks
		a.Instrs += r.Instrs
		a.Misses += r.Misses
	}
	return out
}

// MPKI is the row's L1I demand misses per thousand workload instructions.
func MPKI(r *TenantRow) float64 {
	if r.Instrs == 0 {
		return 0
	}
	return 1000 * float64(r.Misses) / float64(r.Instrs)
}
