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
//
// Each format has one encoder, AppendX, which appends to a byte slice, and
// one decoder, DecodeX, which reads a byte slice; ReadProgram, ReadProfile,
// WriteProgram and WriteProfile wrap them for callers that hold a stream.
// A plan also has DecodePlanSummary, which reads only what a plan-only
// reader needs; its one pass over the encoding is DecodePlan's sizing pass
// too.
package traceio

import (
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

// writer appends varint encodings to a byte slice. It grows the slice by
// doubling, where append would grow a large one by a quarter, so an
// encoding of n bytes allocates less than 4n in all.
type writer struct{ b []byte }

func (e *writer) reserve(n int) {
	if cap(e.b)-len(e.b) < n {
		e.b = slices.Grow(e.b, max(n, len(e.b)))
	}
}

func (e *writer) uvarint(v uint64) {
	e.reserve(binary.MaxVarintLen64)
	e.b = binary.AppendUvarint(e.b, v)
}

func (e *writer) varint(v int64) {
	e.reserve(binary.MaxVarintLen64)
	e.b = binary.AppendVarint(e.b, v)
}

func (e *writer) float(v float64) { e.uvarint(math.Float64bits(v)) }

func (e *writer) str(s string) {
	e.uvarint(uint64(len(s)))
	e.reserve(len(s))
	e.b = append(e.b, s...)
}

// errTruncated is the failure of a read that ran past the end of its input
// or met a varint longer than 64 bits.
var errTruncated = fmt.Errorf("traceio: truncated input or overlong varint: %w", io.ErrUnexpectedEOF)

// reader decodes varints from a byte slice. A failed read moves the offset
// past the end, where every later read fails too and returns zero; err
// holds the message of the first failure, when a check named it.
type reader struct {
	b   []byte
	off int // len(b)+1 once a read has failed
	err error
}

// uvarint reads an unsigned varint. It inlines, so a varint costs no
// function call; that is why the failure is marked in the offset and not
// in err, which would exceed the inlining budget.
func (d *reader) uvarint() uint64 {
	var u uint64
	for s := uint(0); d.off < len(d.b); s += 7 {
		c := uint64(d.b[d.off])
		d.off++
		u |= (c & 0x7f) << s
		if c < 0x80 && (s < 63 || c < 2) {
			return u
		}
		if s == 63 {
			break // an eleventh byte, or a tenth past bit 63
		}
	}
	d.off = len(d.b) + 1
	return 0
}

// varint reads a zigzag-encoded signed varint. It repeats uvarint's loop,
// because a call of uvarint plus the zigzag would not inline.
func (d *reader) varint() int64 {
	var u uint64
	for s := uint(0); d.off < len(d.b); s += 7 {
		c := uint64(d.b[d.off])
		d.off++
		u |= (c & 0x7f) << s
		if c < 0x80 && (s < 63 || c < 2) {
			return int64(u>>1) ^ -int64(u&1)
		}
		if s == 63 {
			break
		}
	}
	d.off = len(d.b) + 1
	return 0
}

// ok reports whether every read so far succeeded.
func (d *reader) ok() bool { return d.off <= len(d.b) }

// fail records err, unless an earlier read failed, and ends the input.
func (d *reader) fail(err error) {
	if d.ok() {
		d.err = err
	}
	d.off = len(d.b) + 1
}

// failure returns nil if every read succeeded, else the first failure.
func (d *reader) failure() error {
	if d.ok() {
		return nil
	}
	if d.err == nil {
		return errTruncated
	}
	return d.err
}

func (d *reader) float() float64 { return math.Float64frombits(d.uvarint()) }

func (d *reader) str() string {
	n := d.uvarint()
	if !d.ok() {
		return ""
	}
	if n > 1<<20 {
		d.fail(fmt.Errorf("traceio: unreasonable string length %d", n))
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail(errTruncated)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// block reads a block ID and fails unless it names one of nb blocks: the
// analysis indexes per-block tables by the IDs a profile holds.
func (d *reader) block(nb int, what string) int32 {
	v := d.varint()
	if d.ok() && (v < 0 || v >= int64(nb)) {
		d.fail(fmt.Errorf("traceio: %s names block %d outside [0, %d)", what, v, nb))
	}
	return int32(v)
}

// count reads an element count and fails unless it is at most max and at
// most the bytes left: every element of every format takes at least one
// byte, so a corrupt header cannot claim more elements than its data could
// hold, and decoders allocate each slice at its final size. It returns 0 on
// any invalid count: a uint64 past 1<<63 converts to a negative int, and
// make() panics on negative sizes.
func (d *reader) count(max uint64, what string) int {
	n := d.uvarint()
	if !d.ok() {
		return 0
	}
	if n > max {
		d.fail(fmt.Errorf("traceio: %s count %d exceeds sanity bound %d", what, n, max))
		return 0
	}
	if left := len(d.b) - d.off; n > uint64(left) {
		d.fail(fmt.Errorf("traceio: %s count %d exceeds the %d bytes left", what, n, left))
		return 0
	}
	return int(n)
}

// readAll returns the bytes of a stream for a slice decoder.
func readAll(r io.Reader) ([]byte, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	return b, nil
}

// WriteProgram serializes a laid-out program.
func WriteProgram(w io.Writer, p *isa.Program) error {
	_, err := w.Write(AppendProgram(nil, p))
	return err
}

// AppendProgram appends the encoding of a laid-out program to b.
func AppendProgram(b []byte, p *isa.Program) []byte {
	e := writer{b: b}
	e.uvarint(programMagic)
	e.uvarint(version)
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
	return e.b
}

// header reads a stream's magic and version and fails unless they are
// magic and this package's version.
func (d *reader) header(magic uint64, what string) error {
	if m := d.uvarint(); d.ok() && m != magic {
		return fmt.Errorf("traceio: bad %s magic %#x", what, m)
	}
	if v := d.uvarint(); d.ok() && v != version {
		return fmt.Errorf("traceio: unsupported %s version %d", what, v)
	}
	return d.failure()
}

// CheckProgramHeader checks an encoded program's magic and version and
// reads nothing past them: the staleness check for a reader that skips the
// program itself.
func CheckProgramHeader(b []byte) error {
	d := reader{b: b}
	return d.header(programMagic, "program")
}

// ReadProgram deserializes a program from a stream and lays it out.
func ReadProgram(r io.Reader) (*isa.Program, error) {
	b, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeProgram(b)
}

// DecodeProgram deserializes a program and lays it out.
func DecodeProgram(b []byte) (*isa.Program, error) {
	d := &reader{b: b}
	if err := d.header(programMagic, "program"); err != nil {
		return nil, err
	}
	p := &isa.Program{}
	nf := d.count(1<<22, "func")
	p.Funcs = make([]isa.Func, 0, nf)
	for i := 0; i < nf && d.ok(); i++ {
		f := isa.Func{Name: d.str(), Align: int(d.uvarint())}
		if d.ok() && (f.Align < 0 || f.Align > 1<<16) {
			d.fail(fmt.Errorf("traceio: func align %d out of range", f.Align))
		}
		nb := d.count(1<<24, "func block")
		f.Blocks = make([]int, nb)
		for j := range f.Blocks {
			f.Blocks[j] = int(d.uvarint())
		}
		p.Funcs = append(p.Funcs, f)
	}
	nb := d.count(1<<24, "block")
	p.Blocks = make([]isa.Block, 0, nb)
	for i := 0; i < nb && d.ok(); i++ {
		b := isa.Block{ID: i, Func: int(d.uvarint())}
		ni := d.count(1<<20, "instr")
		b.Instrs = make([]isa.Instr, 0, ni)
		for j := 0; j < ni && d.ok(); j++ {
			in := isa.Instr{Kind: isa.Kind(d.uvarint()), Size: uint8(d.uvarint()), TargetBlock: -1}
			if in.Kind.IsPrefetch() {
				in.TargetBlock = int32(d.varint())
				in.TargetDelta = int32(d.varint())
				in.CtxHash = d.uvarint()
				in.BitVec = d.uvarint()
				if na := d.count(64, "ctx addr"); na > 0 {
					in.CtxAddrs = make([]isa.Addr, na)
					for k := range in.CtxAddrs {
						in.CtxAddrs[k] = isa.Addr(d.uvarint())
					}
				}
			}
			b.Instrs = append(b.Instrs, in)
		}
		p.Blocks = append(p.Blocks, b)
	}
	if err := d.failure(); err != nil {
		return nil, err
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
	_, err := w.Write(AppendProfile(nil, pd))
	return err
}

// AppendProfile appends the encoding of a profile to b.
func AppendProfile(b []byte, pd *ProfileData) []byte {
	e := writer{b: b}
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
	return e.b
}

// ReadProfile deserializes a profile from a stream.
func ReadProfile(r io.Reader) (*ProfileData, error) {
	b, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeProfile(b)
}

// DecodeProfile deserializes a profile.
func DecodeProfile(b []byte) (*ProfileData, error) {
	d := &reader{b: b}
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

	// The block count is backed by data (count), so the graph's three
	// nb-sized slices are at most a small multiple of the input's size.
	nb := d.count(1<<24, "graph block")
	g := cfg.NewGraph(nb)
	for i := range g.Exec {
		g.Exec[i] = d.uvarint()
	}
	for i := range g.Cycles {
		g.Cycles[i] = d.float()
	}
	for i := 0; i < nb && d.ok(); i++ {
		ne := d.count(1<<20, "edge")
		if ne > 0 {
			g.Edges[i] = make(map[int32]uint64, ne)
		}
		for j := 0; j < ne && d.ok(); j++ {
			to := d.block(nb, "edge")
			g.Edges[i][to] = d.uvarint()
		}
	}
	ns := d.count(1<<24, "site")
	for i := 0; i < ns && d.ok(); i++ {
		key := cfg.LineKey{Block: d.block(nb, "site"), Delta: int32(d.varint())}
		if d.ok() && g.Sites[key] != nil {
			d.fail(fmt.Errorf("traceio: site %v appears twice", key))
			break
		}
		s := g.Site(key)
		s.Count = d.uvarint()
		// Each decoded history is a window of its own, anchored at 0.
		if nsm := d.count(1<<16, "sample"); nsm > 0 {
			s.Samples = make([]cfg.Sample, 0, nsm)
			for j := 0; j < nsm && d.ok(); j++ {
				np := d.count(64, "pred")
				smp := cfg.Sample{Preds: make([]cfg.PredEntry, np)}
				for k := range smp.Preds {
					smp.Preds[k] = cfg.Pred(d.block(nb, "history entry"), uint32(d.uvarint()), uint32(d.uvarint()))
				}
				s.Samples = append(s.Samples, smp)
			}
		}
	}
	g.TotalMisses = pd.TotalMisses
	pd.Graph = g
	if err := d.failure(); err != nil {
		return nil, err
	}
	return pd, nil
}

// AppendStats appends the encoding of one simulation run's statistics to
// b. The artifact cache persists baseline/ideal/evaluation runs this way so
// repeated harness invocations skip re-simulation.
func AppendStats(b []byte, s *sim.Stats) []byte {
	e := writer{b: b}
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
	return e.b
}

// DecodeStats deserializes statistics encoded by AppendStats.
func DecodeStats(b []byte) (*sim.Stats, error) {
	d := &reader{b: b}
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
	if err := d.failure(); err != nil {
		return nil, err
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
