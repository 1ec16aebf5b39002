package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fairtask/internal/dataset"
	"fairtask/internal/model"
	"fairtask/internal/stream"
)

// streamCSV returns a single-center GM problem in the CSV wire schema.
func streamCSV(t *testing.T, seed int64) ([]byte, *model.Instance) {
	t.Helper()
	in, err := dataset.GenerateGM(dataset.GMConfig{
		Seed: seed, Tasks: 30, Workers: 6, DeliveryPoints: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p := &model.Problem{Instances: []model.Instance{*in}}
	if err := dataset.WriteCSV(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), in
}

func postStreamInstance(t *testing.T, url string, body []byte) StreamStateResponse {
	t.Helper()
	resp, err := http.Post(url+"/stream/instance?alg=FGT&seed=5&eps=1.5", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream init status = %d: %s", resp.StatusCode, raw)
	}
	var st StreamStateResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func postEvents(t *testing.T, url string, ds []stream.Delta) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/stream/events", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

// TestStreamEndpoints drives the full HTTP lifecycle: instance upload, a
// delta batch, and a state read that reflects the committed sequence.
func TestStreamEndpoints(t *testing.T) {
	srv := httptest.NewServer(New(testFactory))
	defer srv.Close()
	csv, in := streamCSV(t, 31)

	st := postStreamInstance(t, srv.URL, csv)
	if st.Seq != 0 || st.Workers != 6 || !st.Converged {
		t.Fatalf("unexpected initial state: %+v", st)
	}

	ds := []stream.Delta{
		{Seq: 1, Kind: stream.RewardChanged, TaskID: in.Points[0].Tasks[0].ID, Reward: 2},
		{Seq: 2, Kind: stream.TaskArrived, TaskID: 9000, Point: 1, Expiry: 100, Reward: 1},
	}
	resp, raw := postEvents(t, srv.URL, ds)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d: %s", resp.StatusCode, raw)
	}
	var ar StreamApplyResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Seq != 2 || ar.Applied != 2 {
		t.Fatalf("apply response %+v", ar)
	}
	if ar.Resolve == "" || !ar.Converged {
		t.Fatalf("apply response missing resolve/convergence: %+v", ar)
	}

	resp2, err := http.Get(srv.URL + "/stream/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st2 StreamStateResponse
	if err := json.NewDecoder(resp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if st2.Seq != 2 || st2.Tasks != in.TaskCount()+1 {
		t.Fatalf("state after events: %+v", st2)
	}
	if st2.Algorithm != "FGT" {
		t.Fatalf("algorithm = %q", st2.Algorithm)
	}
}

// TestStreamEventErrors pins the error contract: 404 before an instance is
// installed, 409 for stale sequence numbers, 422 for unknown entities, and
// 400 for malformed JSON.
func TestStreamEventErrors(t *testing.T) {
	srv := httptest.NewServer(New(testFactory))
	defer srv.Close()

	resp, raw := postEvents(t, srv.URL, []stream.Delta{{Seq: 1, Kind: stream.RewardChanged}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-instance events status = %d: %s", resp.StatusCode, raw)
	}
	if resp, err := http.Get(srv.URL + "/stream/state"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("pre-instance state status = %d", resp.StatusCode)
		}
	}

	csv, in := streamCSV(t, 32)
	postStreamInstance(t, srv.URL, csv)

	good := stream.Delta{Seq: 1, Kind: stream.RewardChanged, TaskID: in.Points[0].Tasks[0].ID, Reward: 2}
	if resp, raw := postEvents(t, srv.URL, []stream.Delta{good}); resp.StatusCode != http.StatusOK {
		t.Fatalf("good delta status = %d: %s", resp.StatusCode, raw)
	}
	// Replaying the same sequence number is a conflict, repeatably.
	for i := 0; i < 2; i++ {
		if resp, _ := postEvents(t, srv.URL, []stream.Delta{good}); resp.StatusCode != http.StatusConflict {
			t.Fatalf("stale seq status = %d, want 409", resp.StatusCode)
		}
	}
	// Unknown task: rejected without consuming the sequence number.
	bad := stream.Delta{Seq: 2, Kind: stream.RewardChanged, TaskID: 999999, Reward: 2}
	if resp, _ := postEvents(t, srv.URL, []stream.Delta{bad}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown task status = %d, want 422", resp.StatusCode)
	}
	good.Seq = 2
	good.Reward = 3
	if resp, raw := postEvents(t, srv.URL, []stream.Delta{good}); resp.StatusCode != http.StatusOK {
		t.Fatalf("seq 2 after rejection status = %d: %s", resp.StatusCode, raw)
	}

	resp2, err := http.Post(srv.URL+"/stream/events", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status = %d, want 400", resp2.StatusCode)
	}

	// A typoed field name ("task" for "task_id") must be rejected, not
	// silently decoded as task 0.
	resp3, err := http.Post(srv.URL+"/stream/events", "application/json",
		strings.NewReader(`[{"seq":3,"kind":"reward_changed","task":1,"reward":2}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d, want 400", resp3.StatusCode)
	}
}

// TestStreamInstanceErrors pins upload validation.
func TestStreamInstanceErrors(t *testing.T) {
	srv := httptest.NewServer(New(testFactory))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/stream/instance", "text/csv", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk CSV status = %d, want 400", resp.StatusCode)
	}

	// Multi-center problems are not streamable.
	p, err := dataset.GenerateSYN(dataset.SYNConfig{
		Seed: 1, Centers: 2, Tasks: 20, Workers: 6, DeliveryPoints: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, p); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/stream/instance", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("multi-center status = %d, want 400", resp.StatusCode)
	}

	csv, _ := streamCSV(t, 33)
	resp, err = http.Post(srv.URL+"/stream/instance?seed=x", "text/csv", bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad seed status = %d, want 400", resp.StatusCode)
	}
}

// TestStreamConcurrentPosts hammers /stream/events from many goroutines.
// Exactly one post per sequence number wins; every loser gets 409 and the
// final state is coherent — this is the -race exercise for the engine mutex.
func TestStreamConcurrentPosts(t *testing.T) {
	srv := httptest.NewServer(New(testFactory))
	defer srv.Close()
	csv, in := streamCSV(t, 34)
	postStreamInstance(t, srv.URL, csv)

	const seqs = 8
	const racers = 4
	var wg sync.WaitGroup
	wins := make([]int, seqs)
	var mu sync.Mutex
	for seq := 1; seq <= seqs; seq++ {
		// All racers for seq N start only after N-1 is committed, so every
		// sequence number is contested but the stream still advances.
		var won bool
		for r := 0; r < racers; r++ {
			wg.Add(1)
			go func(seq, r int) {
				defer wg.Done()
				d := stream.Delta{
					Seq:    uint64(seq),
					Kind:   stream.RewardChanged,
					TaskID: in.Points[0].Tasks[0].ID,
					Reward: float64(seq) + float64(r)/10,
				}
				body, _ := json.Marshal([]stream.Delta{d})
				resp, err := http.Post(srv.URL+"/stream/events", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				defer mu.Unlock()
				switch resp.StatusCode {
				case http.StatusOK:
					wins[seq-1]++
				case http.StatusConflict:
				default:
					t.Errorf("seq %d racer %d: status %d", seq, r, resp.StatusCode)
				}
			}(seq, r)
		}
		wg.Wait()
		mu.Lock()
		won = wins[seq-1] == 1
		mu.Unlock()
		if !won {
			t.Fatalf("seq %d won %d times, want exactly 1", seq, wins[seq-1])
		}
	}

	resp, err := http.Get(srv.URL + "/stream/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StreamStateResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Seq != seqs || st.Applied != seqs {
		t.Fatalf("final state %+v, want seq=applied=%d", st, seqs)
	}
}

// TestStreamMetricsPreRegistered checks the serve-startup contract: the
// stream metric families appear on the very first scrape, before any
// streaming traffic.
func TestStreamMetricsPreRegistered(t *testing.T) {
	srv := httptest.NewServer(New(testFactory))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, family := range []string{
		"fta_stream_deltas_total", "fta_stream_rejected_total", "fta_stream_apply_seconds",
		"fta_stream_resolve_seconds", "fta_stream_workers_touched", "fta_stream_resolves_total",
		"fta_stream_seq",
	} {
		if !bytes.Contains(raw, []byte(family)) {
			t.Errorf("first scrape missing %s", family)
		}
	}
}
