// Package traceio persists the reproduction's artifacts — programs,
// profiles, injection plans, run statistics and scenario traces — in a
// compact, deterministic binary format.
//
// The paper's deployment model (Fig. 9) separates profile collection (in
// production) from the offline analysis (at build time); the two sides
// exchange serialized miss profiles. This package provides that interchange:
// `ispy-profile` can write a profile once and the analysis can be re-run
// against it without re-simulating.
//
// Format: a small tag-length-value-free stream of varint-encoded integers
// with section magics, version-checked on read. Floats are encoded as
// IEEE-754 bits. The format is independent of host endianness and Go
// version.
package traceio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"ispy/internal/cache"
	"ispy/internal/cfg"
	"ispy/internal/isa"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

// Magic numbers and version for the container format.
const (
	programMagic = 0x49535059 // "ISPY"
	profileMagic = 0x49535046 // "ISPF"
	statsMagic   = 0x49535354 // "ISST"
	version      = 2
)

// writer wraps buffered varint encoding.
type writer struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func newWriter(w io.Writer) *writer { return &writer{w: bufio.NewWriter(w)} }

func (e *writer) uvarint(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *writer) varint(v int64) {
	if e.err != nil {
		return
	}
	n := binary.PutVarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *writer) float(v float64) { e.uvarint(math.Float64bits(v)) }

func (e *writer) str(s string) {
	e.uvarint(uint64(len(s)))
	if e.err != nil {
		return
	}
	_, e.err = e.w.WriteString(s)
}

func (e *writer) flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// reader wraps buffered varint decoding.
type reader struct {
	r   *bufio.Reader
	err error
}

func newReader(r io.Reader) *reader { return &reader{r: bufio.NewReader(r)} }

func (d *reader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = fmt.Errorf("traceio: %w", err)
	}
	return v
}

func (d *reader) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.err = fmt.Errorf("traceio: %w", err)
	}
	return v
}

func (d *reader) float() float64 { return math.Float64frombits(d.uvarint()) }

func (d *reader) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > 1<<20 {
		d.err = fmt.Errorf("traceio: unreasonable string length %d", n)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = fmt.Errorf("traceio: %w", err)
		return ""
	}
	return string(b)
}

// block reads a block ID and fails unless it names one of nb blocks: the
// analysis indexes per-block tables by the IDs a profile holds.
func (d *reader) block(nb int, what string) int32 {
	v := d.varint()
	if d.err == nil && (v < 0 || v >= int64(nb)) {
		d.err = fmt.Errorf("traceio: %s names block %d outside [0, %d)", what, v, nb)
	}
	return int32(v)
}

// count guards slice allocations against corrupt headers. It returns 0 on
// any invalid count: a value above max must not leak out, since a uint64
// past 1<<63 converts to a negative int and make() panics on negative caps.
func (d *reader) count(max uint64, what string) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > max {
		d.err = fmt.Errorf("traceio: %s count %d exceeds sanity bound %d", what, n, max)
		return 0
	}
	return int(n)
}

// capHint bounds the initial capacity of a decoded slice. A corrupt header
// can claim a huge element count backed by no data; allocating it up front
// turns a few garbage bytes into a multi-hundred-MB allocation. Capacities
// start at most at max and grow only as elements actually decode.
func capHint(n, max int) int {
	if n < max {
		return n
	}
	return max
}

// WriteProgram serializes a laid-out program.
func WriteProgram(w io.Writer, p *isa.Program) error {
	e := newWriter(w)
	e.uvarint(programMagic)
	e.uvarint(version)
	writeProgramBody(e, p)
	return e.flush()
}

func writeProgramBody(e *writer, p *isa.Program) {
	e.uvarint(uint64(len(p.Funcs)))
	for i := range p.Funcs {
		f := &p.Funcs[i]
		e.str(f.Name)
		e.uvarint(uint64(f.Align))
		e.uvarint(uint64(len(f.Blocks)))
		for _, b := range f.Blocks {
			e.uvarint(uint64(b))
		}
	}
	e.uvarint(uint64(len(p.Blocks)))
	for i := range p.Blocks {
		b := &p.Blocks[i]
		e.uvarint(uint64(b.Func))
		e.uvarint(uint64(len(b.Instrs)))
		for _, in := range b.Instrs {
			e.uvarint(uint64(in.Kind))
			e.uvarint(uint64(in.Size))
			if in.Kind.IsPrefetch() {
				e.varint(int64(in.TargetBlock))
				e.varint(int64(in.TargetDelta))
				e.uvarint(in.CtxHash)
				e.uvarint(in.BitVec)
				e.uvarint(uint64(len(in.CtxAddrs)))
				for _, a := range in.CtxAddrs {
					e.uvarint(uint64(a))
				}
			}
		}
	}
}

// header reads a stream's magic and version and fails unless they are
// magic and this package's version.
func (d *reader) header(magic uint64, what string) error {
	if m := d.uvarint(); d.err == nil && m != magic {
		return fmt.Errorf("traceio: bad %s magic %#x", what, m)
	}
	if v := d.uvarint(); d.err == nil && v != version {
		return fmt.Errorf("traceio: unsupported %s version %d", what, v)
	}
	return d.err
}

// ReadProgramHeader checks a program stream's magic and version and reads
// nothing past them: the staleness check for a reader that skips the
// program itself.
func ReadProgramHeader(r io.Reader) error { return newReader(r).header(programMagic, "program") }

// ReadProgram deserializes a program and lays it out.
func ReadProgram(r io.Reader) (*isa.Program, error) {
	d := newReader(r)
	if err := d.header(programMagic, "program"); err != nil {
		return nil, err
	}
	p := readProgramBody(d)
	if d.err != nil {
		return nil, d.err
	}
	// Validate BEFORE Layout: Layout indexes p.Blocks through the funcs'
	// block lists and the instrs' targets unchecked, so laying out a
	// malformed (fuzzed, corrupted) program panics. Validate checks exactly
	// those ranges without needing addresses.
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("traceio: deserialized program invalid: %w", err)
	}
	p.Layout()
	return p, nil
}

func readProgramBody(d *reader) *isa.Program {
	p := &isa.Program{}
	nf := d.count(1<<22, "func")
	p.Funcs = make([]isa.Func, 0, capHint(nf, 4096))
	for i := 0; i < nf && d.err == nil; i++ {
		f := isa.Func{Name: d.str(), Align: int(d.uvarint())}
		if d.err == nil && (f.Align < 0 || f.Align > 1<<16) {
			d.err = fmt.Errorf("traceio: func align %d out of range", f.Align)
		}
		nb := d.count(1<<24, "func block")
		f.Blocks = make([]int, 0, capHint(nb, 4096))
		for j := 0; j < nb && d.err == nil; j++ {
			f.Blocks = append(f.Blocks, int(d.uvarint()))
		}
		p.Funcs = append(p.Funcs, f)
	}
	nb := d.count(1<<24, "block")
	p.Blocks = make([]isa.Block, 0, capHint(nb, 4096))
	for i := 0; i < nb && d.err == nil; i++ {
		b := isa.Block{ID: i, Func: int(d.uvarint())}
		ni := d.count(1<<20, "instr")
		b.Instrs = make([]isa.Instr, 0, capHint(ni, 1024))
		for j := 0; j < ni && d.err == nil; j++ {
			in := isa.Instr{Kind: isa.Kind(d.uvarint()), Size: uint8(d.uvarint()), TargetBlock: -1}
			if in.Kind.IsPrefetch() {
				in.TargetBlock = int32(d.varint())
				in.TargetDelta = int32(d.varint())
				in.CtxHash = d.uvarint()
				in.BitVec = d.uvarint()
				na := d.count(64, "ctx addr")
				for k := 0; k < na && d.err == nil; k++ {
					in.CtxAddrs = append(in.CtxAddrs, isa.Addr(d.uvarint()))
				}
			}
			b.Instrs = append(b.Instrs, in)
		}
		p.Blocks = append(p.Blocks, b)
	}
	return p
}

// ProfileData is the serializable subset of a profile: the miss-annotated
// dynamic CFG plus the summary statistics the analysis needs. (Workload
// identity is recorded by name+seed so the consumer can regenerate the
// matching program deterministically.)
type ProfileData struct {
	WorkloadName string
	WorkloadSeed uint64
	InputName    string
	InputSeed    uint64

	TotalMisses    uint64
	AvgHashDensity float64
	BaseCycles     uint64
	BaseInstrs     uint64

	Graph *cfg.Graph
}

// ProfileDataOf flattens a live profile into its serializable subset.
func ProfileDataOf(p *profile.Profile) *ProfileData {
	return &ProfileData{
		WorkloadName:   p.Workload.Name,
		WorkloadSeed:   p.Workload.Params.Seed,
		InputName:      p.Input.Name,
		InputSeed:      p.Input.Seed,
		TotalMisses:    p.Graph.TotalMisses,
		AvgHashDensity: p.AvgHashDensity,
		BaseCycles:     p.Stats.Cycles,
		BaseInstrs:     p.Stats.BaseInstrs,
		Graph:          p.Graph,
	}
}

// Rebind reconstructs a live profile from pd by regenerating the
// deterministic workload preset it names. It fails with
// workload.LookupParams's error on an unknown preset, and with a stale
// error when the preset's seed has changed since collection or its program
// has a different block count than the profile's graph. Of the profiling
// run's statistics only the summary pd carries survives.
func (pd *ProfileData) Rebind() (*profile.Profile, error) {
	params, err := workload.LookupParams(pd.WorkloadName)
	if err != nil {
		return nil, err
	}
	if params.Seed != pd.WorkloadSeed {
		return nil, fmt.Errorf("traceio: profile was collected on %s with seed %#x; preset now uses %#x",
			pd.WorkloadName, pd.WorkloadSeed, params.Seed)
	}
	w := workload.Generate(params)
	if len(w.Prog.Blocks) != pd.Graph.NumBlocks {
		return nil, fmt.Errorf("traceio: profile graph has %d blocks; preset %s's program has %d",
			pd.Graph.NumBlocks, pd.WorkloadName, len(w.Prog.Blocks))
	}
	return &profile.Profile{
		Graph:          pd.Graph,
		AvgHashDensity: pd.AvgHashDensity,
		Stats:          &sim.Stats{Cycles: pd.BaseCycles, BaseInstrs: pd.BaseInstrs, L1IMisses: pd.TotalMisses},
		Workload:       w,
		Input:          workload.Input{Name: pd.InputName, Seed: pd.InputSeed},
	}, nil
}

// WriteProfile serializes a profile.
func WriteProfile(w io.Writer, pd *ProfileData) error {
	e := newWriter(w)
	e.uvarint(profileMagic)
	e.uvarint(version)
	e.str(pd.WorkloadName)
	e.uvarint(pd.WorkloadSeed)
	e.str(pd.InputName)
	e.uvarint(pd.InputSeed)
	e.uvarint(pd.TotalMisses)
	e.float(pd.AvgHashDensity)
	e.uvarint(pd.BaseCycles)
	e.uvarint(pd.BaseInstrs)

	g := pd.Graph
	e.uvarint(uint64(g.NumBlocks))
	for _, x := range g.Exec {
		e.uvarint(x)
	}
	for _, c := range g.Cycles {
		e.float(c)
	}
	// Edges: per block, count then (to, n) pairs sorted by target for
	// deterministic output.
	for _, m := range g.Edges {
		e.uvarint(uint64(len(m)))
		for _, to := range sortedKeys(m) {
			e.varint(int64(to))
			e.uvarint(m[to])
		}
	}
	e.uvarint(uint64(len(g.Sites)))
	for _, s := range g.SortedSites() {
		e.varint(int64(s.Key.Block))
		e.varint(int64(s.Key.Delta))
		e.uvarint(s.Count)
		e.uvarint(uint64(len(s.Samples)))
		for _, smp := range s.Samples {
			e.uvarint(uint64(len(smp.Preds)))
			for _, pe := range smp.Preds {
				e.varint(int64(pe.Block))
				e.uvarint(uint64(smp.CycleDelta(pe)))
				e.uvarint(uint64(smp.InstrDelta(pe)))
			}
		}
	}
	return e.flush()
}

// ReadProfile deserializes a profile.
func ReadProfile(r io.Reader) (*ProfileData, error) {
	d := newReader(r)
	if err := d.header(profileMagic, "profile"); err != nil {
		return nil, err
	}
	pd := &ProfileData{
		WorkloadName: d.str(),
		WorkloadSeed: d.uvarint(),
		InputName:    d.str(),
		InputSeed:    d.uvarint(),
	}
	pd.TotalMisses = d.uvarint()
	pd.AvgHashDensity = d.float()
	pd.BaseCycles = d.uvarint()
	pd.BaseInstrs = d.uvarint()

	// Decode the per-block series into growable scratch first and only build
	// the graph (whose constructor allocates three nb-sized slices) once the
	// claimed block count has been backed by actual data — a garbage header
	// claiming 2^24 blocks must fail with a decode error, not allocate
	// hundreds of MB.
	nb := d.count(1<<24, "graph block")
	exec := make([]uint64, 0, capHint(nb, 1<<16))
	for i := 0; i < nb && d.err == nil; i++ {
		exec = append(exec, d.uvarint())
	}
	cycles := make([]float64, 0, capHint(nb, 1<<16))
	for i := 0; i < nb && d.err == nil; i++ {
		cycles = append(cycles, d.float())
	}
	if d.err != nil {
		return nil, d.err
	}
	g := cfg.NewGraph(nb)
	copy(g.Exec, exec)
	copy(g.Cycles, cycles)
	for i := 0; i < nb && d.err == nil; i++ {
		ne := d.count(1<<20, "edge")
		for j := 0; j < ne && d.err == nil; j++ {
			to := d.block(nb, "edge")
			n := d.uvarint()
			if g.Edges[i] == nil {
				g.Edges[i] = make(map[int32]uint64, capHint(ne, 256))
			}
			g.Edges[i][to] = n
		}
	}
	ns := d.count(1<<24, "site")
	for i := 0; i < ns && d.err == nil; i++ {
		key := cfg.LineKey{Block: d.block(nb, "site"), Delta: int32(d.varint())}
		if d.err == nil && g.Sites[key] != nil {
			d.err = fmt.Errorf("traceio: site %v appears twice", key)
			break
		}
		s := g.Site(key)
		s.Count = d.uvarint()
		// Each decoded history is a window of its own, anchored at 0.
		nsm := d.count(1<<16, "sample")
		for j := 0; j < nsm && d.err == nil; j++ {
			np := d.count(64, "pred")
			smp := cfg.Sample{Preds: make([]cfg.PredEntry, 0, np)}
			for k := 0; k < np && d.err == nil; k++ {
				smp.Preds = append(smp.Preds, cfg.Pred(d.block(nb, "history entry"), uint32(d.uvarint()), uint32(d.uvarint())))
			}
			s.Samples = append(s.Samples, smp)
		}
	}
	g.TotalMisses = pd.TotalMisses
	pd.Graph = g
	if d.err != nil {
		return nil, d.err
	}
	return pd, nil
}

// WriteStats serializes one simulation run's statistics. The artifact cache
// uses this to persist baseline/ideal/evaluation runs so repeated harness
// invocations skip re-simulation.
func WriteStats(w io.Writer, s *sim.Stats) error {
	e := newWriter(w)
	e.uvarint(statsMagic)
	e.uvarint(version)
	e.uvarint(s.Instrs)
	e.uvarint(s.BaseInstrs)
	e.uvarint(s.Blocks)
	e.uvarint(s.Cycles)
	e.uvarint(s.IssueCycles)
	e.uvarint(s.BackendCycles)
	e.uvarint(s.StallCycles)
	e.uvarint(s.FullStallCycles)
	e.uvarint(s.LineFetches)
	e.uvarint(s.L1IMisses)
	e.uvarint(s.LateWaits)
	e.uvarint(s.DynPrefetchInstrs)
	e.uvarint(s.PrefetchLinesIssued)
	e.uvarint(s.CondExecuted)
	e.uvarint(s.CondFired)
	e.uvarint(s.CondSuppressed)
	e.uvarint(s.CondFalseFires)
	for _, cs := range []cache.Stats{s.L1I, s.L2, s.L3} {
		e.uvarint(cs.Accesses)
		e.uvarint(cs.Misses)
		e.uvarint(cs.PrefetchInserts)
		e.uvarint(cs.PrefetchUseful)
		e.uvarint(cs.PrefetchUseless)
		e.uvarint(cs.PrefetchLate)
		e.uvarint(cs.PrefetchRedundant)
	}
	return e.flush()
}

// ReadStats deserializes statistics written by WriteStats.
func ReadStats(r io.Reader) (*sim.Stats, error) {
	d := newReader(r)
	if err := d.header(statsMagic, "stats"); err != nil {
		return nil, err
	}
	s := &sim.Stats{
		Instrs:              d.uvarint(),
		BaseInstrs:          d.uvarint(),
		Blocks:              d.uvarint(),
		Cycles:              d.uvarint(),
		IssueCycles:         d.uvarint(),
		BackendCycles:       d.uvarint(),
		StallCycles:         d.uvarint(),
		FullStallCycles:     d.uvarint(),
		LineFetches:         d.uvarint(),
		L1IMisses:           d.uvarint(),
		LateWaits:           d.uvarint(),
		DynPrefetchInstrs:   d.uvarint(),
		PrefetchLinesIssued: d.uvarint(),
		CondExecuted:        d.uvarint(),
		CondFired:           d.uvarint(),
		CondSuppressed:      d.uvarint(),
		CondFalseFires:      d.uvarint(),
	}
	for _, cs := range []*cache.Stats{&s.L1I, &s.L2, &s.L3} {
		cs.Accesses = d.uvarint()
		cs.Misses = d.uvarint()
		cs.PrefetchInserts = d.uvarint()
		cs.PrefetchUseful = d.uvarint()
		cs.PrefetchUseless = d.uvarint()
		cs.PrefetchLate = d.uvarint()
		cs.PrefetchRedundant = d.uvarint()
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

func sortedKeys(m map[int32]uint64) []int32 {
	out := make([]int32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
