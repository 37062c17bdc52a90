// Package traffic composes production-style multi-tenant serving traffic
// on top of the single-tenant workload presets.
//
// I-SPY's motivating scenario (§I, Fig. 1) is data-center code whose
// instruction footprint thrashes the I-cache under real serving traffic.
// The nine presets reproduce the footprints, but each simulated run was a
// static single-tenant trace: every "day" looked the same, and nothing
// ever context-switched the front end between applications. This package
// models the missing axis, in the style of ServeGen-class workload
// generators (ROADMAP item 2, SNIPPETS.md Snippet 2) and with the
// per-SLO-class accounting SLOFetch argues matters for cloud
// microservices:
//
//   - heterogeneous tenant populations — each tenant is a named instance
//     of an app preset with a request-rate weight (optionally Zipf-skewed
//     over the tenant list) and an SLO class;
//   - bursty arrival processes — Poisson, Gamma, or Weibull interarrivals
//     drawn from internal/rng's deterministic samplers;
//   - diurnal load curves — a piecewise rate-multiplier "day" that
//     modulates every tenant's rate as virtual time advances;
//   - multi-tenant interleaving — the composed schedule context-switches
//     the instruction stream between tenants at request boundaries, so
//     the merged text segments genuinely evict each other from the
//     I-cache.
//
// Everything is a pure function of the spec and its seed: the same
// (seed, spec) yields a byte-identical trace v2 artifact
// (traceio.ScenarioTrace) and byte-identical simulation reports across
// cache states.
package traffic

import (
	"fmt"
	"strconv"
	"strings"

	"ispy/internal/rng"
	"ispy/internal/workload"
)

// Arrival-process kinds accepted by a spec's `arrival=` clause.
const (
	ArrivalPoisson = "poisson"
	ArrivalGamma   = "gamma"
	ArrivalWeibull = "weibull"
)

// DefaultRequests is the number of requests composed when a spec does not
// say `requests=`.
const DefaultRequests = 256

// TenantSpec describes one tenant before normalization. Zero values mean
// "derive": Weight 0 becomes 1 (or the tenant's Zipf share when the spec
// sets zipf=), Seed 0 is derived from the scenario seed and tenant index,
// Name "" becomes the app name (suffixed #k when the app repeats), SLO ""
// becomes "std".
type TenantSpec struct {
	Name   string
	App    string
	SLO    string
	Weight float64
	Seed   uint64
}

// Spec is a parsed, normalized scenario specification.
type Spec struct {
	Name         string
	Seed         uint64
	Requests     int
	Arrival      string
	ArrivalShape float64   // gamma/weibull shape; 0 for poisson
	ZipfSkew     float64   // <0 when no zipf= clause was given
	Phases       []float64 // diurnal multipliers; each phase spans 1 virtual time unit
	Tenants      []TenantSpec
}

// ParseSpec parses the scenario mini-grammar (documented in
// docs/WORKLOADS.md):
//
//	clause (";" clause)*
//	clause  = "name=" ident | "seed=" uint | "requests=" uint
//	        | "arrival=" ("poisson" | "gamma:" shape | "weibull:" shape)
//	        | "day=" mult ("," mult)* | "zipf=" skew
//	        | "tenants=" tenant ("," tenant)*
//	tenant  = app ["*" count] (":" key "=" value)*   key ∈ {weight, slo, seed}
//
// Example:
//
//	name=peak;seed=42;requests=512;arrival=gamma:0.5;day=0.5,1.0,2.0,1.0;
//	zipf=1.1;tenants=wordpress*2:slo=interactive,kafka:slo=batch:weight=0.5
//
// The returned spec is normalized: weights, seeds, names, and SLO classes
// are all filled in, and every tenant's app has been checked against the
// workload presets (unknown apps fail with the offending tenant named).
func ParseSpec(s string) (*Spec, error) {
	spec := &Spec{
		Requests: DefaultRequests,
		Arrival:  ArrivalPoisson,
		ZipfSkew: -1,
	}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("traffic: clause %q is not key=value", clause)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "name":
			spec.Name = val
		case "seed":
			n, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("traffic: bad seed %q: %v", val, err)
			}
			spec.Seed = n
		case "requests":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("traffic: bad requests %q (want a positive integer)", val)
			}
			if n > 1<<22 {
				return nil, fmt.Errorf("traffic: requests %d exceeds the 4M cap", n)
			}
			spec.Requests = n
		case "arrival":
			if err := parseArrival(spec, val); err != nil {
				return nil, err
			}
		case "day":
			spec.Phases = spec.Phases[:0]
			for _, p := range strings.Split(val, ",") {
				m, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
				if err != nil || m <= 0 {
					return nil, fmt.Errorf("traffic: bad day multiplier %q (want a positive number)", p)
				}
				spec.Phases = append(spec.Phases, m)
			}
		case "zipf":
			z, err := strconv.ParseFloat(val, 64)
			if err != nil || z < 0 {
				return nil, fmt.Errorf("traffic: bad zipf skew %q (want a non-negative number)", val)
			}
			spec.ZipfSkew = z
		case "tenants":
			if err := parseTenants(spec, val); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("traffic: unknown clause %q (valid: name, seed, requests, arrival, day, zipf, tenants)", key)
		}
	}
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	return spec, nil
}

func parseArrival(spec *Spec, val string) error {
	kind, shape, hasShape := strings.Cut(val, ":")
	switch kind {
	case ArrivalPoisson:
		if hasShape {
			return fmt.Errorf("traffic: poisson arrivals take no shape parameter")
		}
		spec.Arrival, spec.ArrivalShape = ArrivalPoisson, 0
		return nil
	case ArrivalGamma, ArrivalWeibull:
		sh := 1.0
		if hasShape {
			v, err := strconv.ParseFloat(shape, 64)
			if err != nil || v <= 0 {
				return fmt.Errorf("traffic: bad %s shape %q (want a positive number)", kind, shape)
			}
			sh = v
		}
		spec.Arrival, spec.ArrivalShape = kind, sh
		return nil
	default:
		return fmt.Errorf("traffic: unknown arrival process %q (valid: poisson, gamma:<shape>, weibull:<shape>)", kind)
	}
}

func parseTenants(spec *Spec, val string) error {
	for _, ent := range strings.Split(val, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		parts := strings.Split(ent, ":")
		head := parts[0]
		app, count := head, 1
		if a, c, ok := strings.Cut(head, "*"); ok {
			n, err := strconv.Atoi(c)
			if err != nil || n <= 0 {
				return fmt.Errorf("traffic: bad tenant count in %q (want app*N with positive N)", head)
			}
			app, count = a, n
		}
		ts := TenantSpec{App: app}
		for _, opt := range parts[1:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return fmt.Errorf("traffic: tenant option %q is not key=value", opt)
			}
			switch k {
			case "weight":
				w, err := strconv.ParseFloat(v, 64)
				if err != nil || w <= 0 {
					return fmt.Errorf("traffic: tenant %q: bad weight %q (want a positive number)", app, v)
				}
				ts.Weight = w
			case "slo":
				ts.SLO = v
			case "seed":
				n, err := strconv.ParseUint(v, 0, 64)
				if err != nil {
					return fmt.Errorf("traffic: tenant %q: bad seed %q: %v", app, v, err)
				}
				ts.Seed = n
			case "name":
				ts.Name = v
			default:
				return fmt.Errorf("traffic: tenant %q: unknown option %q (valid: weight, slo, seed, name)", app, k)
			}
		}
		for i := 0; i < count; i++ {
			spec.Tenants = append(spec.Tenants, ts)
		}
	}
	return nil
}

// normalize validates the tenant population and fills every derived field,
// making the spec canonical: two specs that normalize equal compose equal
// traces.
func (s *Spec) normalize() error {
	if len(s.Tenants) == 0 {
		return fmt.Errorf("traffic: scenario has no tenants (add a tenants= clause)")
	}
	if len(s.Tenants) > 256 {
		return fmt.Errorf("traffic: %d tenants exceeds the 256-tenant cap", len(s.Tenants))
	}
	if s.Name == "" {
		s.Name = "scenario"
	}
	if len(s.Phases) == 0 {
		s.Phases = []float64{1}
	}
	if s.Requests == 0 {
		s.Requests = DefaultRequests
	}

	// Validate apps first so the error names the offending tenant.
	appCount := make(map[string]int, len(s.Tenants))
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if _, err := workload.LookupParams(t.App); err != nil {
			return fmt.Errorf("traffic: tenant %d (%q): %w", i, t.App, err)
		}
		appCount[t.App]++
	}

	// Names: default to the app, suffixed with an occurrence ordinal when
	// the app repeats; explicit names must be unique.
	ordinal := make(map[string]int, len(s.Tenants))
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if t.Name == "" {
			ordinal[t.App]++
			if appCount[t.App] > 1 {
				t.Name = fmt.Sprintf("%s#%d", t.App, ordinal[t.App])
			} else {
				t.Name = t.App
			}
		}
		if t.SLO == "" {
			t.SLO = "std"
		}
	}
	seen := make(map[string]bool, len(s.Tenants))
	for i := range s.Tenants {
		n := s.Tenants[i].Name
		if seen[n] {
			return fmt.Errorf("traffic: duplicate tenant name %q", n)
		}
		seen[n] = true
	}

	// Weights: explicit weights win; unset weights take the tenant's Zipf
	// share when zipf= was given, else 1.
	var zipf []float64
	if s.ZipfSkew >= 0 {
		zipf = rng.ZipfWeights(len(s.Tenants), s.ZipfSkew)
	}
	for i := range s.Tenants {
		if s.Tenants[i].Weight == 0 {
			if zipf != nil {
				s.Tenants[i].Weight = zipf[i] * float64(len(s.Tenants))
			} else {
				s.Tenants[i].Weight = 1
			}
		}
	}

	// Seeds: derive unset per-tenant seeds from the scenario seed and the
	// tenant index via SplitMix64 so tenants get decorrelated streams.
	st := s.Seed ^ 0x1537_5ca1e_d_a_b1e // "i-spy scaled table" salt
	for i := range s.Tenants {
		d := rng.SplitMix64(&st)
		if s.Tenants[i].Seed == 0 {
			s.Tenants[i].Seed = d
		}
	}
	return nil
}

// Apps returns the distinct app presets of the population, in first-tenant
// order (deterministic — no map iteration).
func (s *Spec) Apps() []string {
	seen := make(map[string]bool, len(s.Tenants))
	var out []string
	for i := range s.Tenants {
		a := s.Tenants[i].App
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// Material renders the normalized spec as a canonical string for folding
// into artifact-cache keys: every parameter that affects composition
// appears, in a fixed order. "Every parameter" is enforced by
// artifacts.TestKeyMaterialCoversEveryField: changing any one field of a
// parsed spec, its tenants and phases included, must change this string.
// ZipfSkew is covered because normalization turns it into the per-tenant
// Weights folded below.
func (s *Spec) Material() string {
	var b strings.Builder
	fmt.Fprintf(&b, "name=%s;seed=%d;requests=%d;arrival=%s:%g;day=", s.Name, s.Seed, s.Requests, s.Arrival, s.ArrivalShape)
	for i, p := range s.Phases {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", p)
	}
	b.WriteString(";tenants=")
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%s:%s:w=%g:s=%d", t.Name, t.App, t.SLO, t.Weight, t.Seed)
	}
	return b.String()
}
