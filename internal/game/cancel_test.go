package game

import (
	"context"
	"errors"
	"testing"
)

// cancelAfterErrCalls is a context that reports cancellation after its Err
// method has been consulted limit times. FGT polls ctx.Err exactly once per
// best-response round, so the call count is a deterministic round counter:
// the solve must return within limit+1 polls regardless of MaxIterations.
type cancelAfterErrCalls struct {
	context.Context
	calls, limit int
}

func (c *cancelAfterErrCalls) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestFGTCanceledStopsBeforeMaxIterations is the subsystem's acceptance
// check: a canceled solve stops at the next round boundary instead of
// burning CPU to MaxIterations.
func TestFGTCanceledStopsBeforeMaxIterations(t *testing.T) {
	in := gridInstance(10, 5, 3, 100)
	g := mustGen(t, in)
	// Cancellation lands after round 1 completes; FGT must notice it at the
	// round-2 boundary rather than running on toward MaxIterations.
	const limit = 1
	ctx := &cancelAfterErrCalls{Context: context.Background(), limit: limit}

	res, err := FGT(ctx, NewState(g), Options{MaxIterations: 100000, Seed: 7})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FGT under canceled ctx: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("FGT returned a result alongside the cancellation error")
	}
	if ctx.calls > limit+1 {
		t.Fatalf("FGT polled ctx %d times, want <= %d: it kept iterating after cancellation",
			ctx.calls, limit+1)
	}
}

func TestFGTImmediateCancel(t *testing.T) {
	in := gridInstance(6, 3, 2, 100)
	g := mustGen(t, in)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FGT(ctx, NewState(g), Options{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FGT with pre-canceled ctx: err = %v, want context.Canceled", err)
	}
}
