package fleetprof

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"propeller/internal/profile"
)

// hostProfile builds a deterministic synthetic profile for one host:
// nSamples LBR samples whose branch addresses encode (host, index) so
// merged output uniquely identifies every sample's origin.
func hostProfile(host, nSamples int, buildID string) *profile.Profile {
	p := &profile.Profile{Binary: "testbin", BuildID: buildID, Period: 1000}
	for i := 0; i < nSamples; i++ {
		var s profile.Sample
		for r := 0; r < 3; r++ {
			base := uint64(host)<<32 | uint64(i)<<8 | uint64(r)
			s.Records = append(s.Records, profile.Branch{From: base, To: base + 4})
		}
		p.Samples = append(p.Samples, s)
	}
	return p
}

// storedFleet is a fleet of collectors and the stored profile each replays.
type storedFleet struct {
	cs []*Collector
	ps []*profile.Profile
}

func fleet(n, nSamples int, buildID string, batch int) storedFleet {
	var h storedFleet
	for i := 0; i < n; i++ {
		h.cs = append(h.cs, &Collector{Host: i, BatchSamples: batch})
		h.ps = append(h.ps, hostProfile(i, nSamples, buildID))
	}
	return h
}

// run replays every host's profile into svc (RunFleet).
func (h storedFleet) run(t Transport, svc *Service) (IngestStats, error) {
	return RunFleet(h.cs, h.ps, t, svc)
}

func header(p *profile.Profile) profile.Header {
	return profile.Header{Binary: p.Binary, BuildID: p.BuildID, Period: p.Period}
}

// feed adds p's samples to f and closes it: one host's replay in RunFleet.
func feed(f *Feed, p *profile.Profile) (CollectorStats, error) {
	for _, s := range p.Samples {
		if err := f.Add(s); err != nil {
			return f.Stats(), err
		}
	}
	return f.Close()
}

func encodeProfile(t *testing.T, p *profile.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestMergedProfileBitIdentical is the core determinism claim: the merged
// fleet profile is byte-identical at every shard/worker count and under
// injected loss and duplication.
func TestMergedProfileBitIdentical(t *testing.T) {
	const hosts, samples = 7, 50
	var want []byte
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 4} {
			for _, faults := range []Transport{
				{},
				{LossRate: 0.3, DupRate: 0.3, Seed: 42},
			} {
				name := fmt.Sprintf("shards=%d workers=%d loss=%.1f", shards, workers, faults.LossRate)
				svc := NewService(ServiceConfig{Shards: shards, WorkersPerShard: workers})
				st, err := fleet(hosts, samples, "bid", 8).run(faults, svc)
				if err != nil {
					t.Fatalf("%s: RunFleet: %v", name, err)
				}
				merged, err := svc.MergedProfile()
				if err != nil {
					t.Fatalf("%s: MergedProfile: %v", name, err)
				}
				if got := len(merged.Samples); got != hosts*samples {
					t.Fatalf("%s: merged %d samples, want %d (stats: %+v)", name, got, hosts*samples, st)
				}
				enc := encodeProfile(t, merged)
				if want == nil {
					want = enc
				} else if !bytes.Equal(enc, want) {
					t.Fatalf("%s: merged profile bytes differ from baseline", name)
				}
				if faults.LossRate > 0 && st.LostDeliveries == 0 {
					t.Fatalf("%s: expected some lost deliveries", name)
				}
				if faults.DupRate > 0 && st.DupDeliveries == 0 {
					t.Fatalf("%s: expected some duplicated deliveries", name)
				}
			}
		}
	}
}

// TestFaultInjectionNoDoubleCounting: duplicated deliveries must not
// inflate sample counts; lost deliveries must not lose data.
func TestFaultInjectionNoDoubleCounting(t *testing.T) {
	const hosts, samples = 4, 40
	svc := NewService(ServiceConfig{Shards: 2, WorkersPerShard: 2})
	st, err := fleet(hosts, samples, "bid", 4).run(Transport{LossRate: 0.4, DupRate: 0.5, Seed: 7}, svc)
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	if st.AcceptedSamples != hosts*samples {
		t.Fatalf("accepted %d samples, want %d", st.AcceptedSamples, hosts*samples)
	}
	if st.DupDeliveries == 0 {
		t.Fatal("expected duplicated deliveries at DupRate=0.5")
	}
	if st.DuplicateBatches == 0 {
		t.Fatal("expected server-side duplicate detections")
	}
	if st.LostDeliveries == 0 || st.RetriedSends < st.LostDeliveries {
		t.Fatalf("lost=%d retried=%d: every lost delivery should be retried", st.LostDeliveries, st.RetriedSends)
	}
	// Duplicates were detected, never stored: accepted batch count is
	// exactly the unique batch count.
	wantBatches := int64(hosts * ((samples + 3) / 4))
	if st.AcceptedBatches != wantBatches {
		t.Fatalf("accepted %d batches, want %d", st.AcceptedBatches, wantBatches)
	}
}

// TestBuildIDRejection: a host running a stale binary is rejected and
// counted, and its samples never reach the merged profile.
func TestBuildIDRejection(t *testing.T) {
	svc := NewService(ServiceConfig{BuildID: "current"})
	h := fleet(3, 10, "current", 4)
	h.ps[1] = hostProfile(1, 10, "stale") // host 1 runs an old build
	st, err := h.run(Transport{}, svc)
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	if st.RejectedBuildID != 3 { // 10 samples / batch 4 = 3 batches
		t.Fatalf("RejectedBuildID = %d, want 3", st.RejectedBuildID)
	}
	if st.AcceptedSamples != 20 {
		t.Fatalf("accepted %d samples, want 20 (hosts 0 and 2 only)", st.AcceptedSamples)
	}
	merged, err := svc.MergedProfile()
	if err != nil {
		t.Fatalf("MergedProfile: %v", err)
	}
	for _, s := range merged.Samples {
		if s.Records[0].From>>32 == 1 {
			t.Fatal("merged profile contains samples from the rejected host")
		}
	}
	if _, ok := st.HostBatches[1]; ok {
		t.Fatal("rejected host should have no accepted batches in coverage map")
	}
}

// TestServiceDrainLeavesNoGoroutines: Drain returns once every queued batch
// is ingested and joins every worker the service started, and a second
// Drain starts and leaves none.
func TestServiceDrainLeavesNoGoroutines(t *testing.T) {
	payload := encodeProfile(t, hostProfile(0, 4, "bid"))
	for _, tc := range []struct{ shards, workers int }{{1, 1}, {2, 2}, {4, 2}} {
		base := runtime.NumGoroutine()
		svc := NewService(ServiceConfig{Shards: tc.shards, WorkersPerShard: tc.workers, BuildID: "bid"})
		for seq := 0; seq < 8; seq++ {
			if err := svc.Submit(Batch{Host: 0, Seq: seq, Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
		for drain := 1; drain <= 2; drain++ {
			svc.Drain()
			if got := svc.Stats().AcceptedBatches; got != 8 {
				t.Fatalf("%d×%d, drain %d: %d batches accepted, want 8: Drain returned before the workers were done",
					tc.shards, tc.workers, drain, got)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d×%d, drain %d: %d goroutines, %d before NewService: a worker outlived Drain",
						tc.shards, tc.workers, drain, runtime.NumGoroutine(), base)
				}
			}
		}
	}
}

// slowIngest makes every worker sleep d per batch until the test ends.
func slowIngest(t *testing.T, d time.Duration) {
	ingestDelay = d
	t.Cleanup(func() { ingestDelay = 0 })
}

// TestBackpressure: a depth-1 queue with a slow worker forces queue-full
// rejects and client retries, yet the run converges with every sample
// counted exactly once.
func TestBackpressure(t *testing.T) {
	slowIngest(t, 200*time.Microsecond)
	svc := NewService(ServiceConfig{QueueDepth: 1})
	st, err := fleet(4, 30, "bid", 2).run(Transport{}, svc)
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	if st.QueueFullRejects == 0 {
		t.Fatal("expected queue-full rejects with depth-1 queue and slow worker")
	}
	if st.StallSeconds <= 0 {
		t.Fatal("expected client stall time from backoff")
	}
	if st.AcceptedSamples != 4*30 {
		t.Fatalf("accepted %d samples, want %d", st.AcceptedSamples, 4*30)
	}
}

// TestCorruptBatchCounted: garbage payloads, and clean ones with anything
// after their last sample, are counted, not crashed on or ingested.
func TestCorruptBatchCounted(t *testing.T) {
	svc := NewService(ServiceConfig{})
	clean := (&profile.Profile{Binary: "b", BuildID: "bid", Period: 10, Samples: make([]profile.Sample, 3)}).AppendWire(nil)
	for seq, payload := range [][]byte{[]byte("garbage"), append(clean, 0), append(clean, clean...)} {
		if err := svc.Submit(Batch{Host: 0, Seq: seq, Payload: payload}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	svc.Drain()
	st := svc.Stats()
	if st.CorruptBatches != 3 || st.AcceptedBatches != 0 {
		t.Fatalf("corrupt=%d accepted=%d, want 3/0", st.CorruptBatches, st.AcceptedBatches)
	}
}

// TestEmptyHostStillCovered: a host with no samples ships one empty batch
// so coverage accounting sees it.
func TestEmptyHostStillCovered(t *testing.T) {
	svc := NewService(ServiceConfig{})
	st, err := RunFleet([]*Collector{{Host: 5}}, []*profile.Profile{{Binary: "b", BuildID: "bid", Period: 10}}, Transport{}, svc)
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	if st.HostBatches[5] != 1 {
		t.Fatalf("HostBatches[5] = %d, want 1", st.HostBatches[5])
	}
}

// TestGate holds each criterion of Gate.Check closed and open on one
// collection's stats: 4 hosts of 25 samples each.
func TestGate(t *testing.T) {
	svc := NewService(ServiceConfig{})
	st, err := fleet(4, 25, "bid", 8).run(Transport{}, svc)
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	two := []string{"f", "g"}
	for _, tc := range []struct {
		name     string
		g        Gate
		hot      []string
		expected int
		reason   string
	}{
		{"zero gate", Gate{}, nil, 4, ""},
		{"samples open", Gate{MinSamples: 100}, nil, 4, ""},
		{"samples closed", Gate{MinSamples: 101}, nil, 4, "samples 100 < min 101"},
		{"hot functions open", Gate{MinHotFuncs: 2}, two, 4, ""},
		{"hot functions closed", Gate{MinHotFuncs: 3}, two, 4, "hot functions 2 < min 3"},
		{"hot functions, empty set", Gate{MinHotFuncs: 1}, []string{}, 4, "hot functions 0 < min 1"},
		{"hot functions, no map", Gate{MinHotFuncs: 3}, nil, 4, ""},
		{"coverage open at exactly 0.5", Gate{MinHostCoverage: 0.5}, nil, 8, ""},
		{"coverage closed", Gate{MinHostCoverage: 0.9}, nil, 8, "host coverage 0.50 < min 0.90"},
		{"coverage, no expected hosts", Gate{MinHostCoverage: 0.9}, nil, 0, ""},
		{"first criterion reported", Gate{MinSamples: 101, MinHotFuncs: 3, MinHostCoverage: 0.9}, two, 8, "samples 100 < min 101"},
	} {
		if got := tc.g.Check(st, tc.hot, tc.expected); got != tc.reason {
			t.Errorf("%s: Check = %q, want %q", tc.name, got, tc.reason)
		}
	}
	if cov := st.HostCoverage(8); cov != 0.5 {
		t.Fatalf("HostCoverage = %v, want 0.5", cov)
	}
}

func TestStatusz(t *testing.T) {
	svc := NewService(ServiceConfig{Shards: 2, BuildID: "abcdef0123456789abcdef"})
	_, err := fleet(2, 10, "abcdef0123456789abcdef", 4).run(Transport{}, svc)
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	var buf bytes.Buffer
	svc.Statusz(&buf)
	out := buf.String()
	for _, want := range []string{"2 shards", "accepted=6", "samples: 20", "host 0", "host 1", "serving build ID"} {
		if !strings.Contains(out, want) {
			t.Fatalf("statusz missing %q:\n%s", want, out)
		}
	}
}

// TestMakespanMonotone: the modeled makespan must not increase with shard
// count, and modeled quantities must be identical run to run.
func TestMakespanMonotone(t *testing.T) {
	var base IngestStats
	for trial := 0; trial < 2; trial++ {
		svc := NewService(ServiceConfig{Shards: 3, WorkersPerShard: 2})
		st, err := fleet(8, 64, "bid", 8).run(Transport{LossRate: 0.2, Seed: 3}, svc)
		if err != nil {
			t.Fatalf("RunFleet: %v", err)
		}
		if trial == 0 {
			base = st
		} else {
			if st.ModeledSendSeconds != base.ModeledSendSeconds ||
				st.MaxHostSendSeconds != base.MaxHostSendSeconds ||
				st.ModeledIngestSeconds != base.ModeledIngestSeconds ||
				st.MaxBatchIngestSeconds != base.MaxBatchIngestSeconds {
				t.Fatalf("modeled time not reproducible across runs:\n%+v\nvs\n%+v", base, st)
			}
		}
		prev := st.ModeledMakespan(1)
		for shards := 2; shards <= 16; shards *= 2 {
			cur := st.ModeledMakespan(shards)
			if cur > prev {
				t.Fatalf("makespan increased from %g (shards=%d) to %g (shards=%d)", prev, shards/2, cur, shards)
			}
			prev = cur
		}
	}
}

// TestRetryBudgetCap pins the bounded-attempt contract: a shard that stays
// full for a batch's whole MaxAttempts budget drops the batch — counted in
// DroppedBatches, never hanging the host — and sustained drops double the
// collector's downsampling divisor.
func TestRetryBudgetCap(t *testing.T) {
	// Depth-1 queue whose single worker sleeps long enough that the queue
	// stays full for every collector attempt below.
	slowIngest(t, 300*time.Millisecond)
	svc := NewService(ServiceConfig{QueueDepth: 1})
	// Wedge the shard: one batch busies the worker, one fills the queue.
	for i := 0; i < 2; i++ {
		for {
			if err := svc.Submit(Batch{Host: 99, Seq: i, Payload: []byte("junk")}); err == nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	preRejects := svc.Stats().QueueFullRejects // prefill may have bounced too

	const maxAttempts = 5
	c := &Collector{
		Host:            0,
		BatchSamples:    4, // 2 batches
		Backoff:         100 * time.Microsecond,
		MaxAttempts:     maxAttempts,
		AdaptAfterDrops: 1,
	}
	p := hostProfile(0, 8, "bid")
	cs, err := feed(c.Open(Transport{}, svc, header(p)), p)
	if err != nil {
		t.Fatalf("feed: %v", err)
	}
	svc.foldClient(cs)
	svc.Drain()
	st := svc.Stats()

	if cs.Dropped != 2 || st.DroppedBatches != 2 {
		t.Fatalf("Dropped = %d (stats %d), want 2", cs.Dropped, st.DroppedBatches)
	}
	if cs.Sent != 0 {
		t.Fatalf("Sent = %d, want 0 (every batch met a wedged shard)", cs.Sent)
	}
	// The cap itself: exactly MaxAttempts submits per batch, so the
	// queue-full counter pins the budget.
	if got, want := st.QueueFullRejects-preRejects, int64(2*maxAttempts); got != want {
		t.Fatalf("QueueFullRejects = %d, want %d (MaxAttempts=%d x 2 batches)", got, want, maxAttempts)
	}
	if want := int64(2 * (maxAttempts - 1)); cs.Retried != want {
		t.Fatalf("Retried = %d, want %d", cs.Retried, want)
	}
	// Sampling-rate adaptation: one doubling per drop at AdaptAfterDrops=1.
	if cs.Downsample != 4 || st.MaxDownsample != 4 {
		t.Fatalf("Downsample = %d (stats %d), want 4 after 2 drops", cs.Downsample, st.MaxDownsample)
	}
}

// feedPayloads streams p's samples through one host's Feed at batch size
// bs and downsampling d, and returns the payloads it shipped in order.
func feedPayloads(t *testing.T, p *profile.Profile, bs int, d int64) [][]byte {
	t.Helper()
	// A service without shard workers: batches stay queued for the test.
	svc := &Service{shards: []*shard{{ch: make(chan Batch, len(p.Samples)+1)}}}
	c := &Collector{Host: 0, BatchSamples: bs}
	f := c.Open(Transport{}, svc, header(p))
	f.st.Downsample = d
	if _, err := feed(f, p); err != nil {
		t.Fatal(err)
	}
	close(svc.shards[0].ch)
	var out [][]byte
	for b := range svc.shards[0].ch {
		if b.Seq != len(out) {
			t.Fatalf("batch seq %d, want %d", b.Seq, len(out))
		}
		out = append(out, b.Payload)
	}
	return out
}

// TestFeedPayloadMatchesAppendWire: a Feed encodes kept samples as they
// arrive, and each batch's payload is byte for byte AppendWire of its
// window thinned to samples 0, d, 2d, … — for full, partial and empty
// windows at downsampling {1, 2, 4}, with no spare capacity.
func TestFeedPayloadMatchesAppendWire(t *testing.T) {
	const bs = 4
	for _, n := range []int{0, 3, 4, 10} {
		p := hostProfile(0, n, "bid")
		for _, d := range []int64{1, 2, 4} {
			got := feedPayloads(t, p, bs, d)
			var want [][]byte
			for lo := 0; lo < n || lo == 0; lo += bs {
				chunk := profile.Profile{Binary: p.Binary, BuildID: p.BuildID, Period: p.Period}
				for i := lo; i < min(lo+bs, n); i += int(d) {
					chunk.Samples = append(chunk.Samples, p.Samples[i])
				}
				want = append(want, chunk.AppendWire(nil))
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d d=%d: %d batches, want %d", n, d, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("n=%d d=%d: batch %d payload differs from AppendWire of its thinned window", n, d, i)
				}
				if len(got[i]) != cap(got[i]) {
					t.Errorf("n=%d d=%d: batch %d payload is %d bytes in a %d-byte buffer", n, d, i, len(got[i]), cap(got[i]))
				}
			}
		}
	}
}

// TestThin pins the adaptation's sample selection: every d-th sample, ages
// preserved, no bias toward either end of the window.
func TestThin(t *testing.T) {
	p := hostProfile(0, 10, "bid")
	for _, tc := range []struct {
		d    int64
		want []uint64
	}{{1, []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}, {4, []uint64{0, 4, 8}}} {
		payloads := feedPayloads(t, p, 10, tc.d)
		if len(payloads) != 1 {
			t.Fatalf("thin(%d): %d batches, want 1", tc.d, len(payloads))
		}
		got, err := profile.ReadBytes(payloads[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Samples) != len(tc.want) {
			t.Fatalf("thin(%d) = %d samples, want %d", tc.d, len(got.Samples), len(tc.want))
		}
		for i, s := range got.Samples {
			if idx := (s.Records[0].From >> 8) & 0xffffff; idx != tc.want[i] {
				t.Fatalf("thin(%d)[%d] is source sample %d, want %d", tc.d, i, idx, tc.want[i])
			}
		}
	}
}

// TestStatuszHandler is the httptest smoke test for the HTTP snapshot
// wsc-propeller -statusz-addr serves.
func TestStatuszHandler(t *testing.T) {
	svc := NewService(ServiceConfig{Shards: 2, BuildID: "deadbeefcafe0123"})
	if _, err := fleet(2, 10, "deadbeefcafe0123", 4).run(Transport{}, svc); err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	ts := httptest.NewServer(svc.StatuszHandler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatalf("GET /statusz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	for _, want := range []string{"2 shards", "serving build ID", "samples: 20"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("statusz body missing %q:\n%s", want, body)
		}
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/statusz", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /statusz: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp2.StatusCode)
	}
}

// TestTransportPlanDeterministic: the fault plan is a pure function of
// (seed, host, seq).
func TestTransportPlanDeterministic(t *testing.T) {
	tr := Transport{LossRate: 0.5, DupRate: 0.5, Seed: 99}
	anyLost, anyDup := false, false
	for host := 0; host < 10; host++ {
		for seq := 0; seq < 10; seq++ {
			l1, d1 := tr.plan(host, seq)
			l2, d2 := tr.plan(host, seq)
			if l1 != l2 || d1 != d2 {
				t.Fatalf("plan(%d,%d) not deterministic", host, seq)
			}
			anyLost = anyLost || l1 > 0
			anyDup = anyDup || d1
		}
	}
	if !anyLost || !anyDup {
		t.Fatal("expected both losses and dups at 0.5 rates over 100 batches")
	}
	if l, _ := (Transport{LossRate: 1, MaxLostAttempts: 5}).plan(0, 0); l != 5 {
		t.Fatalf("loss cap: got %d lost attempts, want 5", l)
	}
}

// TestCollectorEncodeAllocAmortized pins the batch wire path: with the
// reused window and encode buffers in place, shipping K times as many
// batches through one collector run must cost only per-batch constants
// (the payload copy that crosses into the service queues, plus the
// service side's stored batch), never per-sample or per-record encode
// allocations. A regression to per-record allocation would multiply the
// marginal rate by the ~192 records per batch and trip the bound.
func TestCollectorEncodeAllocAmortized(t *testing.T) {
	measure := func(batches int) float64 {
		p := hostProfile(0, batches*64, "")
		return testing.AllocsPerRun(3, func() {
			svc := NewService(ServiceConfig{QueueDepth: batches + 8})
			c := &Collector{Host: 0, BatchSamples: 64}
			if _, err := feed(c.Open(Transport{}, svc, header(p)), p); err != nil {
				t.Fatal(err)
			}
			svc.Drain()
			if got := svc.Stats().AcceptedBatches; got != int64(batches) {
				t.Fatalf("accepted %d batches, want %d", got, batches)
			}
		})
	}
	small, big := measure(4), measure(64)
	perBatch := (big - small) / 60
	if perBatch > 24 {
		t.Errorf("%.1f marginal allocs per batch (%.0f at 4 batches, %.0f at 64), want <= 24",
			perBatch, small, big)
	}
}

// TestRunFleetLowestFailure: among working hosts, two without a profile
// (hosts 1 and 3): RunFleet reports host 1's error, still folds every
// working host's stats and drains the service.
func TestRunFleetLowestFailure(t *testing.T) {
	for round := 0; round < 50; round++ {
		h := fleet(7, 10, "bid", 4)
		h.ps[1], h.ps[3] = nil, nil
		svc := NewService(ServiceConfig{Shards: 4, BuildID: "bid"})
		st, err := h.run(Transport{}, svc)
		if want := "fleetprof: collector host 1 has no profile"; err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
		if !svc.drained {
			t.Fatal("service not drained after a failed fleet")
		}
		// Five working hosts ship 3 batches of 10 samples at 4 per batch.
		if st.SentBatches != 15 || st.AcceptedBatches != 15 || st.HostBatches[3] != 0 {
			t.Fatalf("sent %d, accepted %d, host 3 %d; want 15, 15, 0", st.SentBatches, st.AcceptedBatches, st.HostBatches[3])
		}
	}
}
