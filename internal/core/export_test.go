package core

// SkippedCycles returns how many cycles p's Step fast-forwarded over
// (the lockstep cores always skip together), for the external tests.
func SkippedCycles(p *CMP) int64 { return p.cores[0].skippedCycles }
