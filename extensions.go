package lvf2

import "lvf2/internal/fit"

// Extensions beyond the paper's headline model: the LN/LSN
// prior-generation comparators.

// The prior-generation log-domain comparator models (paper refs [5], [6]).
const (
	KindLN  = fit.ModelLN  // log-normal (Keller 2014)
	KindLSN = fit.ModelLSN // log-skew-normal (Balef 2016)
)

// ExtendedModelKinds lists the paper's four models plus LN and LSN.
func ExtendedModelKinds() []ModelKind {
	out := make([]ModelKind, len(fit.ExtendedModels))
	copy(out, fit.ExtendedModels)
	return out
}
