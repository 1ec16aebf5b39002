package stream

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"fairtask/internal/audit"
	"fairtask/internal/game"
	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/vdps"
)

// FuzzStreamDeltas drives one engine per input through delta batches
// decoded from the fuzz bytes: arrivals (also at out-of-range points and
// under duplicate task IDs), expiries and re-pricings of present or unknown
// tasks, worker arrivals under fresh or live IDs, departures of present or
// unknown workers, rejoins under a live ID (in place or moved), unknown
// kinds, and stale or repeated sequence numbers. The first byte picks FGT or
// IEGT. Every batch is either rejected atomically — with a typed error and
// the snapshot unchanged — or it replays onto an independent instance,
// commits the cold reference solve of that instance bit for bit, and passes
// the audit against a cold generator.
func FuzzStreamDeltas(f *testing.F) {
	// Moved rejoin: worker 0 goes offline and comes back next to the center
	// under the same ID (FGT, then IEGT).
	f.Add([]byte{0, 13, 0, 132, 129})
	f.Add([]byte{1, 13, 2, 132, 129})
	// One batch arriving, expiring and re-pricing tasks.
	f.Add([]byte{0, 0, 5, 8, 64, 1, 3, 0, 0, 10, 7, 0, 96})
	// A stale sequence number, then an unknown kind.
	f.Add([]byte{0, 8 | 2<<4 | 2, 0, 0, 48, 15, 0, 0, 0})
	// A worker arrival with MaxDP 4 above the roster's 3 forces a full
	// regeneration.
	f.Add([]byte{0, 11, 140, 120, 3})
	// Six departures, one batch each, drain the roster to zero workers.
	f.Add([]byte{0, 14, 0, 0, 0, 14, 0, 0, 0, 14, 0, 0, 0, 14, 0, 0, 0, 14, 0, 0, 0, 14, 0, 0, 0})
	// Expiry-heavy batches: an arrival with a 1/2 h deadline at point 0
	// tombstones candidates and appends regenerated ones; arrivals with
	// 1/16 h deadlines at points 4-10 then drop more than they regenerate,
	// so the table crosses the compaction rule twice; a batch of expiries
	// appends after the compaction.
	f.Add([]byte{0,
		8, 0, 16, 32,
		0, 4, 2, 32, 0, 5, 2, 32, 0, 6, 2, 32, 8, 7, 2, 32,
		0, 8, 2, 32, 0, 9, 2, 32, 8, 10, 2, 32,
		1, 0, 0, 0, 1, 5, 0, 0, 9, 9, 0, 0})
	// Regens that splice the strategy lists in place and then outgrow them:
	// a 1/2 h arrival at point 11 drops more of every list than it
	// regenerates, so each list shrinks in its own array; expiring it
	// appends the entries back into the room that left; expiring the task
	// that pins point 9's earliest expiry appends more than any list holds,
	// so each list grows; expiring both of point 3's earliest tasks then
	// appends into that growth's spare capacity.
	f.Add([]byte{0, 8, 11, 16, 32, 9, 30, 0, 0, 9, 25, 0, 0, 1, 8, 0, 0, 9, 7, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		alg := FGT
		if data[0]&1 != 0 {
			alg = IEGT
		}
		const seed = 3
		in := gmInstance(t, seed, 30, 6, 12)
		opt := Options{Algorithm: alg, VDPS: testVDPS}
		opt.Game.Seed, opt.Evo.Seed = seed, seed
		eng, err := New(context.Background(), in, opt)
		if err != nil {
			t.Fatal(err)
		}
		dec := fuzzDecoder{data: data[1:], nextTask: 1 << 16, nextWorker: 1 << 16}
		for b := 0; b < 12; b++ {
			before := eng.Snapshot()
			ds := dec.batch(in, before.Seq)
			if ds == nil {
				return
			}
			if _, err := eng.ApplyAll(context.Background(), ds); err != nil {
				if !typedRejection(err) {
					t.Fatalf("batch %d %+v: untyped rejection: %v", b, ds, err)
				}
				if !reflect.DeepEqual(eng.Snapshot(), before) {
					t.Fatalf("batch %d %+v: rejection (%v) changed the snapshot", b, ds, err)
				}
				continue
			}
			if err := Replay(in, ds...); err != nil {
				t.Fatalf("batch %d %+v: accepted, but the replay rejects it: %v", b, ds, err)
			}
			snap := eng.Snapshot()
			assertBitExact(t, snap, coldReference(t, in, alg, seed))
			g, err := vdps.Generate(in, testVDPS)
			if err != nil {
				t.Fatal(err)
			}
			rep := audit.Run(in, snap.Assignment, &snap.Summary, audit.Options{
				State: game.NewState(g), Solver: eng.solver, Converged: snap.Converged,
			})
			if !rep.OK() {
				t.Fatalf("batch %d %+v: %v", b, ds, rep.Err())
			}
		}
	})
}

// typedRejection reports whether err is one of the delta grammar's
// sentinels.
func typedRejection(err error) bool {
	for _, s := range []error{
		ErrStaleSeq, ErrUnknownKind, ErrUnknownTask, ErrUnknownWorker,
		ErrUnknownPoint, ErrDuplicateTask, ErrDuplicateWorker, ErrBadDelta,
	} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// fuzzDecoder turns fuzz bytes into delta batches, four bytes (op, x, y, z)
// per step. op&7 picks the step's kind, op&8 closes the batch after it, and
// op>>4&3 picks its sequence number: 2 repeats the previous one (stale when
// it opens a batch), 3 skips ahead, anything else takes the next.
type fuzzDecoder struct {
	data                 []byte
	nextTask, nextWorker int
}

// unknownID names no task or worker the decoder ever creates.
const unknownID = 1 << 24

// batch decodes the next batch, of at most six steps, against the committed
// instance and sequence cursor. It returns nil once the input is exhausted.
func (d *fuzzDecoder) batch(in *model.Instance, seq uint64) []Delta {
	var ds []Delta
	for steps := 0; steps < 6 && len(d.data) >= 4; steps++ {
		op, x, y, z := d.data[0], d.data[1], d.data[2], d.data[3]
		d.data = d.data[4:]
		switch op >> 4 & 3 {
		case 2:
		case 3:
			seq += uint64(z%4) + 2
		default:
			seq++
		}
		ds = append(ds, d.step(in, &seq, op&7, x, y, z)...)
		if op&8 != 0 {
			break
		}
	}
	return ds
}

// step decodes one step into its deltas, numbering them from *seq.
func (d *fuzzDecoder) step(in *model.Instance, seq *uint64, kind, x, y, z byte) []Delta {
	// task picks a live task ID, or unknownID when y&1 is set.
	task := func() int {
		var ids []int
		for p := range in.Points {
			for _, tk := range in.Points[p].Tasks {
				ids = append(ids, tk.ID)
			}
		}
		if y&1 != 0 || len(ids) == 0 {
			return unknownID
		}
		return ids[int(x)%len(ids)]
	}
	worker := func() (model.Worker, bool) {
		if len(in.Workers) == 0 {
			return model.Worker{ID: unknownID}, false
		}
		return in.Workers[int(x)%len(in.Workers)], true
	}
	online := func(id int) Delta {
		return Delta{
			Seq: *seq, Kind: WorkerOnline, WorkerID: id,
			Loc: fuzzLoc(in, x, y), MaxDP: 1 + int(z%4),
			Speed: []float64{0, 4, 7, math.NaN()}[z>>2&3],
		}
	}
	switch kind {
	case 0:
		// An odd y reuses a live task ID.
		id := d.nextTask
		d.nextTask++
		if y&1 != 0 {
			for p := range in.Points {
				if tasks := in.Points[(int(x)+p)%len(in.Points)].Tasks; len(tasks) > 0 {
					id = tasks[0].ID
					break
				}
			}
		}
		return []Delta{{
			Seq: *seq, Kind: TaskArrived, TaskID: id, Point: int(x) % (len(in.Points) + 1),
			Expiry: float64(y>>1) / 16, Reward: float64(z) / 32,
		}}
	case 1:
		return []Delta{{Seq: *seq, Kind: TaskExpired, TaskID: task()}}
	case 2:
		reward := float64(z) / 32
		if z == 255 {
			reward = -1
		}
		return []Delta{{Seq: *seq, Kind: RewardChanged, TaskID: task(), Reward: reward}}
	case 3:
		d.nextWorker++
		return []Delta{online(d.nextWorker)}
	case 4:
		w, _ := worker()
		return []Delta{online(w.ID)}
	case 5:
		// Rejoin under a live ID in one batch: in place when y is 0,
		// otherwise at a new location, keeping every other field.
		w, ok := worker()
		off := Delta{Seq: *seq, Kind: WorkerOffline, WorkerID: w.ID}
		if !ok {
			return []Delta{off}
		}
		if y != 0 {
			w.Loc = fuzzLoc(in, y, z)
		}
		*seq++
		return []Delta{off, {
			Seq: *seq, Kind: WorkerOnline, WorkerID: w.ID, Loc: w.Loc, MaxDP: w.MaxDP,
			Priority: w.Priority, Contribution: w.Contribution, Speed: w.Speed,
		}}
	case 6:
		w, ok := worker()
		if !ok || y&1 != 0 {
			w.ID = unknownID
		}
		return []Delta{{Seq: *seq, Kind: WorkerOffline, WorkerID: w.ID}}
	}
	return []Delta{{Seq: *seq, Kind: "bogus"}}
}

// fuzzLoc maps two bytes to a location within 2 km of the center, or to a
// non-finite one for (255, 255).
func fuzzLoc(in *model.Instance, a, b byte) geo.Point {
	if a == 255 && b == 255 {
		return geo.Point{X: math.Inf(1), Y: in.Center.Y}
	}
	return geo.Point{X: in.Center.X + (float64(a)-128)/64, Y: in.Center.Y + (float64(b)-128)/64}
}
