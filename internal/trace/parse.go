package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseProfile parses the textual profile format: whitespace-separated
// key=value tokens describing one application model. Structural keys are
//
//	name=<string>  seed=<uint64>  kind=no|high|low
//	seglen=<uint>  blocks=<int>   blocklen=<int>
//
// and behaviour-pole parameters take an "a." or "b." prefix:
//
//	a.load a.store a.branch a.fp a.muldiv a.chain     (fractions)
//	a.ws a.stride                                     (bytes)
//	a.stridepct a.chase a.burstprob a.noise a.addrready (fractions)
//	a.chains a.burstlen                               (counts)
//
// Unset keys keep their zero values, which Defaulted later fills; tokens
// after a '#' on a line are comments. The format round-trips: for any
// successfully parsed profile p, ParseProfile(p.Spec()) reproduces p
// exactly.
func ParseProfile(s string) (Profile, error) {
	var p Profile
	seen := map[string]bool{}
	for _, line := range strings.Split(s, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, tok := range strings.Fields(line) {
			key, val, ok := strings.Cut(tok, "=")
			if !ok {
				return Profile{}, fmt.Errorf("trace: token %q is not key=value", tok)
			}
			if key == "" || val == "" {
				return Profile{}, fmt.Errorf("trace: empty key or value in %q", tok)
			}
			if seen[key] {
				return Profile{}, fmt.Errorf("trace: duplicate key %q", key)
			}
			seen[key] = true
			if err := p.setKey(key, val); err != nil {
				return Profile{}, err
			}
		}
	}
	if err := p.validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// setKey applies one key=value token to the profile.
func (p *Profile) setKey(key, val string) error {
	switch key {
	case "name":
		p.Name = val
		return nil
	case "seed":
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("trace: seed: %w", err)
		}
		p.Seed = v
		return nil
	case "kind":
		switch val {
		case "no":
			p.Kind = PhaseNone
		case "high":
			p.Kind = PhaseHigh
		case "low":
			p.Kind = PhaseLow
		default:
			return fmt.Errorf("trace: kind %q is not no|high|low", val)
		}
		return nil
	case "seglen":
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("trace: seglen: %w", err)
		}
		p.SegLen = v
		return nil
	case "blocks":
		v, err := parseCount(val, 1<<16)
		if err != nil {
			return fmt.Errorf("trace: blocks: %w", err)
		}
		p.Blocks = v
		return nil
	case "blocklen":
		v, err := parseCount(val, 1<<12)
		if err != nil {
			return fmt.Errorf("trace: blocklen: %w", err)
		}
		p.BlockLen = v
		return nil
	}
	pole, param, ok := strings.Cut(key, ".")
	if !ok || (pole != "a" && pole != "b") {
		return fmt.Errorf("trace: unknown key %q", key)
	}
	pp := &p.A
	if pole == "b" {
		pp = &p.B
	}
	return pp.setParam(param, val)
}

// setParam applies one pole parameter.
func (pp *Params) setParam(param, val string) error {
	switch param {
	case "ws":
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("trace: %s: %w", param, err)
		}
		pp.WorkingSet = v
		return nil
	case "stride":
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("trace: %s: %w", param, err)
		}
		pp.Stride = v
		return nil
	case "chains":
		v, err := parseCount(val, 12)
		if err != nil {
			return fmt.Errorf("trace: %s: %w", param, err)
		}
		pp.ChaseChains = v
		return nil
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("trace: %s: %w", param, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("trace: %s=%v must be finite and non-negative", param, v)
	}
	dst, frac := pp.floatParam(param)
	if dst == nil {
		return fmt.Errorf("trace: unknown parameter %q", param)
	}
	if frac && v > 1 {
		return fmt.Errorf("trace: %s=%v is not a fraction in [0, 1]", param, v)
	}
	*dst = v
	return nil
}

// floatParam maps a parameter name to its field and reports whether it
// must be a fraction in [0, 1].
func (pp *Params) floatParam(param string) (dst *float64, frac bool) {
	switch param {
	case "load":
		return &pp.FracLoad, true
	case "store":
		return &pp.FracStore, true
	case "branch":
		return &pp.FracBranch, true
	case "fp":
		return &pp.FracFp, true
	case "muldiv":
		return &pp.FracMulDiv, true
	case "chain":
		return &pp.ChainDep, true
	case "stridepct":
		return &pp.StridePct, true
	case "chase":
		return &pp.PointerChase, true
	case "burstprob":
		return &pp.MissBurstProb, true
	case "noise":
		return &pp.BranchNoise, true
	case "addrready":
		return &pp.AddrReady, true
	case "burstlen":
		return &pp.BurstLen, false
	default:
		return nil, false
	}
}

// parseCount parses a non-negative int bounded by max.
func parseCount(val string, max int) (int, error) {
	v, err := strconv.Atoi(val)
	if err != nil {
		return 0, err
	}
	if v < 0 || v > max {
		return 0, fmt.Errorf("%d outside [0, %d]", v, max)
	}
	return v, nil
}

// validate rejects parameter combinations the generator cannot run.
func (p *Profile) validate() error {
	poles := []struct {
		name string
		pp   *Params
	}{{"a", &p.A}, {"b", &p.B}}
	for _, pole := range poles {
		pp := pole.pp
		if sum := pp.FracLoad + pp.FracStore + pp.FracBranch; sum >= 1 {
			return fmt.Errorf("trace: %s.load+%s.store+%s.branch = %v must be < 1", pole.name, pole.name, pole.name, sum)
		}
		if pp.BurstLen > 1e4 {
			return fmt.Errorf("trace: %s.burstlen=%v is unreasonably large", pole.name, pp.BurstLen)
		}
	}
	return nil
}

// Spec renders the profile in the canonical form ParseProfile reads:
// structural keys first, then the set (non-zero) pole parameters in a
// fixed order. ParseProfile(p.Spec()) == p for any parsed p, which makes
// Spec a stable content key for caching and a lossless serialisation.
//
//smtlint:ignore deadcode test support: the round-trip reference behind the ParseProfile(p.Spec()) == p tests
func (p Profile) Spec() string {
	var b strings.Builder
	emit := func(key, val string) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(val)
	}
	if p.Name != "" {
		emit("name", p.Name)
	}
	if p.Seed != 0 {
		emit("seed", strconv.FormatUint(p.Seed, 10))
	}
	if p.Kind != PhaseNone {
		emit("kind", strings.ToLower(p.Kind.String()))
	}
	if p.SegLen != 0 {
		emit("seglen", strconv.FormatUint(p.SegLen, 10))
	}
	if p.Blocks != 0 {
		emit("blocks", strconv.Itoa(p.Blocks))
	}
	if p.BlockLen != 0 {
		emit("blocklen", strconv.Itoa(p.BlockLen))
	}
	p.A.spec("a", emit)
	p.B.spec("b", emit)
	return b.String()
}

// spec emits the pole's non-zero parameters under the given prefix.
func (pp Params) spec(pole string, emit func(key, val string)) {
	f := func(param string, v float64) {
		if v != 0 {
			emit(pole+"."+param, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	f("load", pp.FracLoad)
	f("store", pp.FracStore)
	f("branch", pp.FracBranch)
	f("fp", pp.FracFp)
	f("muldiv", pp.FracMulDiv)
	f("chain", pp.ChainDep)
	if pp.WorkingSet != 0 {
		emit(pole+".ws", strconv.FormatUint(pp.WorkingSet, 10))
	}
	f("stridepct", pp.StridePct)
	if pp.Stride != 0 {
		emit(pole+".stride", strconv.FormatUint(pp.Stride, 10))
	}
	f("chase", pp.PointerChase)
	if pp.ChaseChains != 0 {
		emit(pole+".chains", strconv.Itoa(pp.ChaseChains))
	}
	f("burstprob", pp.MissBurstProb)
	f("burstlen", pp.BurstLen)
	f("noise", pp.BranchNoise)
	f("addrready", pp.AddrReady)
}
