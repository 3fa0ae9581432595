package vm

import "context"

// checkEvery is the chunk size RunCtx runs between cancellation checks. It
// is small enough that Ctrl-C stops a run within a few million modeled
// instructions, and large enough that the per-chunk bookkeeping is
// invisible next to the dispatch loop itself.
const checkEvery uint64 = 2_000_000

// RunCtx executes like Run(fuel) but in chunks of checkEvery instructions,
// polling ctx between chunks — the seam a whole-run cancel (Ctrl-C,
// SIGTERM) stops a long run at. Because Run is resumable (the machine pauses with its
// PC on the next instruction and all counters, i-cache/TLB state, and
// profiler attribution intact), a chunked run retires the exact same
// instruction stream and produces a bit-identical Result to a single
// Run(fuel) call; ctx and chunking only decide when we stop looking.
//
// Termination is reported exactly one way per run: the process outcome
// (halt/fault/trap, err == nil apart from internal VM errors), ctx.Err()
// when the context is cancelled between chunks, or ErrFuelExhausted when
// fuel instructions have retired without the program ending. fuel <= 0
// returns immediately with ErrFuelExhausted. In every case the partial
// Result so far is returned.
func (m *Machine) RunCtx(ctx context.Context, fuel uint64) (*Result, error) {
	var res *Result
	for {
		if ctx != nil {
			select {
			case <-ctx.Done():
				if res == nil {
					res = &m.res
				}
				return res, ctx.Err()
			default:
			}
		}
		if fuel == 0 {
			if res == nil {
				res = &m.res
			}
			return res, ErrFuelExhausted
		}
		chunk := checkEvery
		if chunk > fuel {
			chunk = fuel
		}
		var err error
		res, err = m.Run(chunk)
		if err != ErrFuelExhausted {
			return res, err
		}
		fuel -= chunk
	}
}
