package evo

import (
	"context"
	"errors"
	"testing"

	"fairtask/internal/game"
)

// cancelAfterErrCalls reports cancellation after limit Err() polls; IEGT
// polls once per evolution round, making the call count a round counter.
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

// TestIEGTCanceledStopsBeforeMaxIterations mirrors the FGT acceptance
// check: cancellation ends the replicator loop at the next round boundary.
func TestIEGTCanceledStopsBeforeMaxIterations(t *testing.T) {
	in := gridInstance(10, 5, 3, 100, 2)
	g := mustGen(t, in)
	const limit = 3
	ctx := &cancelAfterErrCalls{Context: context.Background(), limit: limit}

	// MutationRate 1 keeps the population exploring, so the loop cannot
	// converge on its own — only cancellation can end it early.
	res, err := IEGT(ctx, game.NewState(g), Options{MaxIterations: 100000, Seed: 7, MutationRate: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("IEGT under canceled ctx: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("IEGT returned a result alongside the cancellation error")
	}
	if ctx.calls > limit+1 {
		t.Fatalf("IEGT polled ctx %d times, want <= %d: it kept iterating after cancellation",
			ctx.calls, limit+1)
	}
}

func TestIEGTImmediateCancel(t *testing.T) {
	in := gridInstance(6, 3, 2, 100, 3)
	g := mustGen(t, in)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := IEGT(ctx, game.NewState(g), Options{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("IEGT with pre-canceled ctx: err = %v, want context.Canceled", err)
	}
}
