package core

import (
	"fmt"
	"math/rand"

	"edgecache/internal/dp"
	"edgecache/internal/model"
)

// LPPM is the paper's Laplace Privacy-Preserving Mechanism (Definition 2)
// as a reusable component: it perturbs a routing block by subtracting
// bounded noise, ŷ_nuf = y_nuf − r_nuf with r drawn on [0, δ·y]. The
// default noise family is the paper's bounded Laplace with β = Δf/ε
// (Theorem 4); PrivacyConfig.Mechanism selects the Gaussian or uniform
// variants used by the noise-family ablation (the paper's §VII future
// work).
//
// The in-process Coordinator and the message-passing SBS agents in
// internal/sim share this type, so the two deployments are provably
// running the same mechanism.
type LPPM struct {
	cfg   PrivacyConfig
	rng   *rand.Rand // draws through cfg.Noise, so every draw is counted
	beta  float64    // Laplace scale (MechanismLaplace)
	sigma float64    // Gaussian scale (MechanismGaussian)
	// out is Perturb's result workspace, reused while the shape matches.
	out model.Mat
}

// NewLPPM validates the configuration and calibrates the noise scale.
// Every draw goes through cfg.Noise and advances its countable position.
func NewLPPM(cfg PrivacyConfig) (*LPPM, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l := &LPPM{cfg: cfg, rng: rand.New(cfg.Noise)}
	switch cfg.Mechanism {
	case MechanismLaplace:
		beta, err := dp.BetaForEpsilon(lppmSensitivity, cfg.Epsilon)
		if err != nil {
			return nil, err
		}
		l.beta = beta
	case MechanismGaussian:
		sigma, err := dp.GaussianMechanism{
			Sensitivity: lppmSensitivity,
			Epsilon:     cfg.Epsilon,
			Delta:       gaussianDPDelta,
		}.Sigma()
		if err != nil {
			return nil, err
		}
		l.sigma = sigma
	case MechanismUniform:
		// No calibration: magnitude is set purely by δ·y.
	}
	return l, nil
}

// Sigma returns the calibrated Gaussian scale (zero for other mechanisms).
func (l *LPPM) Sigma() float64 { return l.sigma }

// Epsilon returns the per-release privacy budget.
func (l *LPPM) Epsilon() float64 { return l.cfg.Epsilon }

// Mechanism returns the configured noise family.
func (l *LPPM) Mechanism() NoiseMechanism { return l.cfg.Mechanism }

// Perturb returns a noised copy of the routing block and records the ε
// spend under the given label (typically the SBS identifier) when an
// accountant is configured. Zero entries stay exactly zero: a demand that
// was never served leaks nothing and must not be jittered into service.
//
// The returned matrix is the LPPM's own workspace and is overwritten by
// the next call; callers that need to retain it must copy it (SetSBS,
// Install and EncodePayload do exactly that). The clean block is left
// intact.
func (l *LPPM) Perturb(label string, routing model.Mat) (model.Mat, error) {
	if l.out.U != routing.U || l.out.F != routing.F {
		l.out = model.NewMat(routing.U, routing.F)
	}
	noised := l.out
	for u := 0; u < routing.U; u++ {
		src := routing.Row(u)
		dst := noised.Row(u)
		for f, v := range src {
			if v <= 0 {
				dst[f] = 0
				continue
			}
			r, err := l.noise(v)
			if err != nil {
				return model.Mat{}, err
			}
			dst[f] = v - r
		}
	}
	if l.cfg.Accountant != nil {
		if err := l.cfg.Accountant.Record(label, l.cfg.Epsilon); err != nil {
			return model.Mat{}, err
		}
	}
	return noised, nil
}

// noise draws the disturbance for one routing value.
func (l *LPPM) noise(y float64) (float64, error) {
	switch l.cfg.Mechanism {
	case MechanismLaplace:
		return dp.LPPMNoise(l.rng, y, l.cfg.Delta, l.beta)
	case MechanismGaussian:
		return dp.TruncatedHalfNormal(l.rng, l.sigma, l.cfg.Delta*y)
	case MechanismUniform:
		return l.rng.Float64() * l.cfg.Delta * y, nil
	default:
		return 0, fmt.Errorf("core: unknown noise mechanism %v", l.cfg.Mechanism)
	}
}

// PerturbSBS is a convenience for callers that label spends by SBS index
// rather than by name. The label is formatted only when an accountant
// records it.
func (l *LPPM) PerturbSBS(n int, routing model.Mat) (model.Mat, error) {
	label := ""
	if l.cfg.Accountant != nil {
		label = fmt.Sprintf("sbs-%d", n)
	}
	return l.Perturb(label, routing)
}
