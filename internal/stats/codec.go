package stats

import "fmt"

// DistSpec is the serialisable form of a Distribution: the family name and
// its parameters in the family's documented order. Keddah model files store
// every fitted law this way.
type DistSpec struct {
	Family Family    `json:"family"`
	Params []float64 `json:"params"`
}

// Spec captures d into its serialisable form.
func Spec(d Distribution) DistSpec {
	return DistSpec{Family: d.Family(), Params: d.Params()}
}

// Build reconstructs the Distribution described by the spec.
func (s DistSpec) Build() (Distribution, error) {
	need := func(n int) error {
		if len(s.Params) != n {
			return fmt.Errorf("stats: %s expects %d params, got %d", s.Family, n, len(s.Params))
		}
		return nil
	}
	switch s.Family {
	case FamilyExponential:
		if err := need(1); err != nil {
			return nil, err
		}
		return NewExponential(s.Params[0])
	case FamilyNormal:
		if err := need(2); err != nil {
			return nil, err
		}
		return NewNormal(s.Params[0], s.Params[1])
	case FamilyLogNormal:
		if err := need(2); err != nil {
			return nil, err
		}
		return NewLogNormal(s.Params[0], s.Params[1])
	case FamilyGamma:
		if err := need(2); err != nil {
			return nil, err
		}
		return NewGamma(s.Params[0], s.Params[1])
	case FamilyWeibull:
		if err := need(2); err != nil {
			return nil, err
		}
		return NewWeibull(s.Params[0], s.Params[1])
	case FamilyPareto:
		if err := need(2); err != nil {
			return nil, err
		}
		return NewPareto(s.Params[0], s.Params[1])
	case FamilyUniform:
		if err := need(2); err != nil {
			return nil, err
		}
		return NewUniform(s.Params[0], s.Params[1])
	case FamilyConstant:
		if err := need(1); err != nil {
			return nil, err
		}
		return NewConstant(s.Params[0])
	default:
		return nil, fmt.Errorf("stats: unknown family %q", s.Family)
	}
}
