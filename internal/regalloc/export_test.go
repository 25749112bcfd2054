package regalloc

// Hooks for the external-package tests in this directory, which import
// packages (core) that import regalloc.

// RefFitsIn is the reference FitsIn of reference_test.go.
var RefFitsIn = refFitsIn

// Placements returns the number of placements f ran since its last
// Reset: asks the certificate or the average-live bound answered are
// not counted.
func (f *Fitter) Placements() int { return f.tests }
