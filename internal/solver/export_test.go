package solver

// Test-only selectors for the external differential tests in package
// solver_test, which drive the solver through the planning layer and so
// cannot set the unexported switches directly.

// WithDenseOracle returns o with every LP solved on the dense two-phase
// tableau instead of the revised simplex.
func WithDenseOracle(o Options) Options {
	o.denseOracle = true
	return o
}

// WithoutNodePresolve returns o with per-node bound propagation off.
func WithoutNodePresolve(o Options) Options {
	o.noNodePresolve = true
	return o
}
