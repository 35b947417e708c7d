package sweep

import (
	"fmt"
	"runtime/debug"

	"ndpage/internal/sim"
)

// RunError is the structured failure of one simulation run: a build
// error sim.RunConfig returned, or a simulator panic Guard recovered.
// Either is a deterministic property of the configuration, so the
// Runner memoizes it for its lifetime instead of simulating the
// configuration again.
type RunError struct {
	// Op names the layer that failed ("simulate").
	Op string
	// Desc is the configuration's Desc(), for log lines.
	Desc string
	// Panicked marks an error recovered from a simulator panic.
	Panicked bool
	// Stack holds the recovered panic's stack trace (empty otherwise).
	Stack string
	// Err is the underlying cause.
	Err error
}

// Error formats the failure.
func (e *RunError) Error() string {
	what := e.Op
	if e.Desc != "" {
		what += " " + e.Desc
	}
	if e.Panicked {
		return fmt.Sprintf("%s: recovered panic: %v", what, e.Err)
	}
	return fmt.Sprintf("%s: %v", what, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// Guard wraps a simulation function so a panic in the simulator core
// (osmm, pagetable, tlb all panic on bad state) becomes a structured
// RunError instead of killing the process. One poisoned configuration
// then costs one failed run — the worker and the sweep keep going.
func Guard(fn func(sim.Config) (*sim.Result, error)) func(sim.Config) (*sim.Result, error) {
	return func(cfg sim.Config) (res *sim.Result, err error) {
		defer func() {
			if v := recover(); v != nil {
				res = nil
				err = &RunError{
					Op:       "simulate",
					Desc:     cfg.Desc(),
					Panicked: true,
					Stack:    string(debug.Stack()),
					Err:      fmt.Errorf("panic: %v", v),
				}
			}
		}()
		return fn(cfg)
	}
}
