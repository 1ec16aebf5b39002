package game

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fairtask/internal/vdps"
)

// TestStateOwnershipInvariant drives the game state through random legal
// switch sequences and checks, after every operation, that the ownership
// table matches the current strategies exactly: a point is owned by w iff
// it appears in w's current strategy, and the materialized assignment
// always validates.
func TestStateOwnershipInvariant(t *testing.T) {
	f := func(seed int64, opsRaw []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		in := gridInstance(6+rng.Intn(5), 3+rng.Intn(3), 2, 50)
		g, err := vdps.Generate(in, vdps.Options{})
		if err != nil {
			return false
		}
		s := NewState(g)
		for _, op := range opsRaw {
			w := int(op) % len(s.Current)
			if len(s.Strategies[w]) == 0 {
				continue
			}
			r := Idle
			if si := int(op/7) % (len(s.Strategies[w]) + 1); si < len(s.Strategies[w]) {
				r = s.Strategies[w][si]
			}
			if !s.Available(w, r) {
				continue
			}
			s.Switch(w, r)

			// Invariant: the assignment derived from Current validates
			// (disjointness + feasibility + maxDP).
			if err := s.Assignment().Validate(in); err != nil {
				t.Logf("assignment invalid after switch: %v", err)
				return false
			}
			// Invariant: payoffs match the chosen strategies.
			for w2, cur := range s.Current {
				want := 0.0
				if cur.Cand != Null {
					want = s.Strategies[w2][slices.IndexFunc(s.Strategies[w2], func(r vdps.StrategyRef) bool {
						return r.Cand == cur.Cand
					})].Payoff
				}
				if s.Payoffs[w2] != want {
					t.Logf("payoff cache inconsistent for worker %d", w2)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAvailabilityMatchesValidation cross-checks Available against the
// model-level validator: whenever Available says yes, the switch must
// produce a valid assignment.
func TestAvailabilityMatchesValidation(t *testing.T) {
	in := gridInstance(8, 4, 2, 100)
	g := mustGen(t, in)
	s := NewState(g)
	rng := rand.New(rand.NewSource(2))
	s.RandomInit(rng)
	for trial := 0; trial < 200; trial++ {
		w := rng.Intn(len(s.Current))
		if len(s.Strategies[w]) == 0 {
			continue
		}
		r := s.Strategies[w][rng.Intn(len(s.Strategies[w]))]
		if !s.Available(w, r) {
			continue
		}
		before := s.Current[w]
		s.Switch(w, r)
		if err := s.Assignment().Validate(in); err != nil {
			t.Fatalf("Available=true but switch produced invalid assignment: %v", err)
		}
		// Restore to keep exploring diverse states.
		if before.Cand == Null || s.Available(w, before) {
			s.Switch(w, before)
		}
	}
}
