package daesim

import (
	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Typed error classification. Every validation failure surfaced by the
// package — from Request.Validate or the Engine — wraps exactly one of
// these sentinels, so callers (and the dae-serve HTTP layer, which maps
// them to status codes) classify with errors.Is instead of matching
// message text.
var (
	// ErrInvalidRequest is wrapped by every malformed-Request failure:
	// negative budgets, an unknown workload kind, a custom workload
	// without (or with an inconsistent) benchmark model.
	ErrInvalidRequest = runner.ErrInvalidRequest
	// ErrUnknownBenchmark is wrapped when a workload names a benchmark
	// that is not one of the ten built-in models (see Benchmarks).
	ErrUnknownBenchmark = workload.ErrUnknownBenchmark
	// ErrInvalidConfig is wrapped by every Machine validation failure.
	ErrInvalidConfig = config.ErrInvalid
)

// BatchError aggregates the failures of a RunBatch: one error per failed
// request, in request order, plus the batch size. RunBatch returns it
// (via the error interface) whenever at least one request failed;
// errors.As recovers it and Unwrap exposes the individual failures to
// errors.Is.
type BatchError = runner.BatchError
