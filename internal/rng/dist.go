// Continuous distributions for the traffic layer's arrival processes
// (internal/traffic): exponential (Poisson arrivals), Gamma and Weibull
// interarrivals for bursty request streams. Like everything in this package
// they are pure functions of the generator state — no math/rand, no
// platform-dependent libm calls — so a seeded arrival schedule is
// bit-for-bit reproducible across runs and platforms.
package rng

// Exp returns an exponential variate with mean 1 (the interarrival time of
// a unit-rate Poisson process). Divide by a rate to rescale.
func (r *Rand) Exp() float64 {
	// Float64 is in [0, 1), so 1-u is in (0, 1] and Ln stays in domain.
	return -Ln(1 - r.Float64())
}

// Normal returns a standard normal variate via the polar (Marsaglia) method
// — no trigonometry needed, only the package's own Ln and sqrtF.
func (r *Rand) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s == 0 || s >= 1 {
			continue
		}
		return u * sqrtF(-2*Ln(s)/s)
	}
}

// Gamma returns a Gamma(shape, 1) variate (mean = shape, variance = shape)
// by the Marsaglia–Tsang squeeze method; shapes below 1 use the boosting
// identity Gamma(a) = Gamma(a+1)·U^(1/a). shape must be positive.
func (r *Rand) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma shape must be positive")
	}
	if shape < 1 {
		// Boost: sample at shape+1 and scale by U^(1/shape).
		for {
			u := r.Float64()
			if u > 0 {
				return r.Gamma(shape+1) * powF(u, 1/shape)
			}
		}
	}
	d := shape - 1.0/3.0
	c := 1 / sqrtF(9*d)
	for {
		x := r.Normal()
		t := 1 + c*x
		if t <= 0 {
			continue
		}
		v := t * t * t
		u := r.Float64()
		if u == 0 {
			continue // Ln domain; vanishing-probability reject
		}
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if Ln(u) < 0.5*x*x+d*(1-v+Ln(v)) {
			return d * v
		}
	}
}

// Weibull returns a Weibull(shape, 1) variate by inversion; its mean is
// GammaFn(1+1/shape). shape < 1 gives heavy-tailed (bursty) interarrivals,
// shape > 1 regular ones, shape = 1 is exponential. shape must be positive.
func (r *Rand) Weibull(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Weibull shape must be positive")
	}
	x := -Ln(1 - r.Float64())
	if x == 0 {
		return 0
	}
	return powF(x, 1/shape)
}

// GammaFn is the gamma function Γ(x) for x > 0, via the Lanczos
// approximation (g = 7, 9 coefficients — about 13 significant digits, far
// more than the mean-normalization of arrival samplers needs).
func GammaFn(x float64) float64 {
	if x <= 0 {
		panic("rng: GammaFn domain")
	}
	if x < 0.5 {
		// Reflection: Γ(x)·Γ(1-x) = π/sin(πx). The traffic layer never
		// needs x < 0.5 (it evaluates at 1+1/shape > 1), and sin is not
		// worth carrying here; recurse upward instead: Γ(x) = Γ(x+1)/x.
		return GammaFn(x+1) / x
	}
	const sqrtTwoPi = 2.5066282746310002
	lanczos := [...]float64{
		0.99999999999980993,
		676.5203681218851,
		-1259.1392167224028,
		771.32342877765313,
		-176.61502916214059,
		12.507343278686905,
		-0.13857109526572012,
		9.9843695780195716e-6,
		1.5056327351493116e-7,
	}
	z := x - 1
	a := lanczos[0]
	for i := 1; i < len(lanczos); i++ {
		a += lanczos[i] / (z + float64(i))
	}
	t := z + 7.5
	return sqrtTwoPi * powF(t, z+0.5) * Exp(-t) * a
}

// sqrtF computes the square root by Newton iteration (exact enough for
// sampling; converges quadratically from a float-bits initial guess).
func sqrtF(x float64) float64 {
	if x < 0 {
		panic("rng: sqrtF domain")
	}
	if x == 0 {
		return 0
	}
	g := x
	if g > 1 {
		g = x / 2
	}
	for i := 0; i < 40; i++ {
		ng := 0.5 * (g + x/g)
		if ng == g {
			break
		}
		g = ng
	}
	return g
}
