// Command ncdrf-lint is the repository's invariant checker: a
// stdlib-only driver for the analyzers in internal/analysis that
// machine-enforce the rules the sweep/curve/store stack rests on —
// byte-identical plan-order streams (detrange), immutable pipeline
// stage artifacts (stagemut), threaded cancellation (ctxflow),
// clock/randomness-free deterministic paths (wallclock), joined
// goroutines (goleak), pool hygiene (poolescape), lock discipline
// (lockdisc) and guarded shared mutation (sharedmut).
//
// It loads packages with `go list`, analyzes them in dependency order
// and threads analyzer facts across package boundaries:
//
//	go run ./cmd/ncdrf-lint ./...
//	go run ./cmd/ncdrf-lint -json ./...
//
// -json emits findings — including suppressed ones, marked as such —
// as a JSON array on stdout.
//
// Exceptions carry a `//lint:allow <analyzer> -- rationale` directive
// on or directly above the offending line; a directive naming an
// analyzer that does not exist is itself reported. DESIGN.md
// ("Enforced invariants") documents each analyzer's rule.
package main

import (
	"ncdrf/internal/analysis/ctxflow"
	"ncdrf/internal/analysis/detrange"
	"ncdrf/internal/analysis/goleak"
	"ncdrf/internal/analysis/lockdisc"
	"ncdrf/internal/analysis/poolescape"
	"ncdrf/internal/analysis/sharedmut"
	"ncdrf/internal/analysis/stagemut"
	"ncdrf/internal/analysis/unitchecker"
	"ncdrf/internal/analysis/wallclock"
)

func main() {
	unitchecker.Main(
		detrange.Analyzer,
		stagemut.Analyzer,
		ctxflow.Analyzer,
		wallclock.Analyzer,
		goleak.Analyzer,
		poolescape.Analyzer,
		lockdisc.Analyzer,
		sharedmut.Analyzer,
	)
}
