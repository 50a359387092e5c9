package core

import "repro/internal/mem"

// SkippedCycles returns how many cycles p's Step fast-forwarded over
// (the lockstep cores always skip together), for the external tests.
func SkippedCycles(p *CMP) int64 { return p.cores[0].skippedCycles }

// Cores returns the number of cores.
func (p *CMP) Cores() int { return len(p.cores) }

// Mem returns the memory subsystem.
func (c *Core) Mem() *mem.System { return c.mem }

// Now returns the current cycle.
func (c *Core) Now() int64 { return c.now }

// Context returns thread t's context.
func (c *Core) Context(t int) *Context { return c.ctxs[t] }
