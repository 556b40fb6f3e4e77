package profsvc

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"propeller/internal/profile"
)

// mkProf builds a distinguishable profile: n single-record samples whose
// addresses encode (tag, index) so retention tests can tell epochs apart.
func mkProf(buildID string, tag uint64, n int) *profile.Profile {
	p := &profile.Profile{Binary: "pm", BuildID: buildID, Period: 211}
	for i := 0; i < n; i++ {
		p.Samples = append(p.Samples, profile.Sample{Records: []profile.Branch{
			{From: tag<<20 | uint64(i), To: tag<<20 | uint64(i) | 1<<40},
		}})
	}
	return p
}

func profBytes(t *testing.T, p *profile.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStoreRejectsNoBuildID(t *testing.T) {
	s := NewStore(StoreConfig{})
	if _, err := s.Publish(&profile.Profile{Period: 211}); err == nil {
		t.Fatal("want error publishing a profile with no build ID")
	}
}

// TestEpochEvictionOrder: with MaxEpochs=2, a third epoch for the same
// build must evict the oldest epoch — and only the oldest — so the
// aggregate is built from the two newest epochs.
func TestEpochEvictionOrder(t *testing.T) {
	s := NewStore(StoreConfig{MaxEpochs: 2, DecayShift: 1})
	for e := 1; e <= 3; e++ {
		s.AdvanceEpoch()
		if _, err := s.Publish(mkProf("b1", uint64(e), 8)); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	st := s.Stats()
	if st.EvictedEpochs != 1 {
		t.Fatalf("EvictedEpochs = %d, want 1 (oldest epoch trimmed)", st.EvictedEpochs)
	}
	agg, ok := s.Profile("b1")
	if !ok {
		t.Fatal("build b1 missing")
	}
	// Retained epochs are 2 (age 1 → 8>>1 = 4 samples) and 3 (age 0 → 8).
	if len(agg.Samples) != 12 {
		t.Fatalf("aggregate has %d samples, want 12 (decayed epoch 2 + full epoch 3)", len(agg.Samples))
	}
	// No sample from the evicted epoch 1 (tag 1) may survive; the decayed
	// epoch-2 prefix and full epoch 3 must both be present.
	tags := map[uint64]int{}
	for _, smp := range agg.Samples {
		tags[smp.Records[0].From>>20]++
	}
	if tags[1] != 0 {
		t.Fatalf("evicted epoch 1 leaked %d samples into the aggregate", tags[1])
	}
	if tags[2] != 4 || tags[3] != 8 {
		t.Fatalf("aggregate composition %v, want 4 from epoch 2 and 8 from epoch 3", tags)
	}
}

// TestNeverRecurringBuildDecaysOut: a build ID published once and never
// again must decay to zero samples and be forgotten, not pin the store.
func TestNeverRecurringBuildDecaysOut(t *testing.T) {
	s := NewStore(StoreConfig{MaxEpochs: 4, DecayShift: 1})
	s.AdvanceEpoch()
	if _, err := s.Publish(mkProf("once", 1, 3)); err != nil {
		t.Fatal(err)
	}
	// age 1: 3>>1 = 1 sample left; age 2: 3>>2 = 0 → evicted.
	s.AdvanceEpoch()
	if agg, ok := s.Profile("once"); !ok || len(agg.Samples) != 1 {
		t.Fatalf("after one advance: got ok=%v samples=%d, want decayed to 1", ok, lenOf(agg))
	}
	s.AdvanceEpoch()
	if _, ok := s.Profile("once"); ok {
		t.Fatal("fully decayed build should be evicted")
	}
	st := s.Stats()
	if st.Builds != 0 || st.EvictedBuilds != 1 {
		t.Fatalf("stats after decay-out: %+v, want 0 builds and 1 eviction", st)
	}
}

func lenOf(p *profile.Profile) int {
	if p == nil {
		return 0
	}
	return len(p.Samples)
}

// TestDeltaMergeMatchesFullMerge: publishing in many small payloads with
// the aggregate cache warm (delta path) must yield byte-identical profile
// bytes to one bulk publish read back cold (full rebuild path).
func TestDeltaMergeMatchesFullMerge(t *testing.T) {
	parts := []*profile.Profile{
		mkProf("b", 1, 5), mkProf("b", 2, 3), mkProf("b", 3, 7),
	}

	delta := NewStore(StoreConfig{})
	delta.AdvanceEpoch()
	if _, err := delta.Publish(parts[0]); err != nil {
		t.Fatal(err)
	}
	// Warm the aggregate cache so subsequent publishes take the delta path.
	if _, ok := delta.Profile("b"); !ok {
		t.Fatal("missing after first publish")
	}
	for _, p := range parts[1:] {
		if _, err := delta.Publish(p); err != nil {
			t.Fatal(err)
		}
	}
	dp, _ := delta.Profile("b")

	full := NewStore(StoreConfig{})
	full.AdvanceEpoch()
	for _, p := range parts {
		if _, err := full.Publish(p); err != nil {
			t.Fatal(err)
		}
	}
	fp, _ := full.Profile("b")

	if !bytes.Equal(profBytes(t, dp), profBytes(t, fp)) {
		t.Fatal("delta-merged aggregate differs from full rebuild")
	}
}

// TestMaxBuildsEviction: the least-recently-published build goes first.
func TestMaxBuildsEviction(t *testing.T) {
	s := NewStore(StoreConfig{MaxBuilds: 2, MaxEpochs: 8, DecayShift: 1})
	s.AdvanceEpoch()
	s.Publish(mkProf("old", 1, 16))
	s.AdvanceEpoch()
	s.Publish(mkProf("mid", 2, 16))
	s.AdvanceEpoch()
	s.Publish(mkProf("new", 3, 16))
	if _, ok := s.Profile("old"); ok {
		t.Fatal("LRU build should have been evicted")
	}
	for _, id := range []string{"mid", "new"} {
		if _, ok := s.Profile(id); !ok {
			t.Fatalf("build %s should have survived", id)
		}
	}
	if st := s.Stats(); st.EvictedBuilds != 1 {
		t.Fatalf("EvictedBuilds = %d, want 1", st.EvictedBuilds)
	}
}

// TestSameEpochPublishExtendsEpoch: two publishes in one epoch form one
// epoch bucket, not two — the delta merge contract.
func TestSameEpochPublishExtendsEpoch(t *testing.T) {
	s := NewStore(StoreConfig{MaxEpochs: 2})
	s.AdvanceEpoch()
	s.Publish(mkProf("b", 1, 2))
	retained, err := s.Publish(mkProf("b", 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if retained != 5 {
		t.Fatalf("retained = %d, want 5", retained)
	}
	if st := s.Stats(); st.Epochs != 1 {
		t.Fatalf("Epochs = %d, want 1 (same-epoch publishes share a bucket)", st.Epochs)
	}
}

// TestPublishRejectsIncompatiblePeriod: a payload whose sampling period
// disagrees with what is stored for the build must be refused.
func TestPublishRejectsIncompatiblePeriod(t *testing.T) {
	s := NewStore(StoreConfig{})
	s.AdvanceEpoch()
	if _, err := s.Publish(mkProf("b", 1, 2)); err != nil {
		t.Fatal(err)
	}
	bad := mkProf("b", 2, 2)
	bad.Period = 997
	if _, err := s.Publish(bad); err == nil {
		t.Fatal("want period-mismatch error on same-epoch publish")
	}
	s.AdvanceEpoch()
	if _, err := s.Publish(bad); err == nil {
		t.Fatal("want period-mismatch error on new-epoch publish")
	}
}

// TestBuildsOrdering: most recently published first, ties by build ID.
func TestBuildsOrdering(t *testing.T) {
	s := NewStore(StoreConfig{MaxBuilds: 4, MaxEpochs: 8, DecayShift: 1})
	s.AdvanceEpoch()
	s.Publish(mkProf("zz", 1, 8))
	s.AdvanceEpoch()
	s.Publish(mkProf("aa", 2, 8))
	s.Publish(mkProf("mm", 3, 8))
	got := ""
	for _, bi := range s.Builds() {
		got += fmt.Sprintf("%s:%d ", bi.BuildID, bi.LastPublish)
	}
	if got != "aa:2 mm:2 zz:1 " {
		t.Fatalf("Builds() order = %q", got)
	}
}

func TestEpochIDTracksAggregateContent(t *testing.T) {
	s := NewStore(StoreConfig{MaxEpochs: 3})
	if _, ok := s.EpochID("bid"); ok {
		t.Fatal("EpochID for an unknown build")
	}
	if _, err := s.Publish(mkProf("bid", 1, 4)); err != nil {
		t.Fatal(err)
	}
	id1, ok := s.EpochID("bid")
	if !ok || id1 == "" {
		t.Fatalf("EpochID after publish: %q, %t", id1, ok)
	}
	// Unchanged store → unchanged ID (the cache-reuse case).
	if id2, _ := s.EpochID("bid"); id2 != id1 {
		t.Fatalf("ID changed without a store mutation: %q vs %q", id1, id2)
	}
	// A delta publish changes what Profile() returns → ID must roll.
	if _, err := s.Publish(mkProf("bid", 2, 4)); err != nil {
		t.Fatal(err)
	}
	id3, _ := s.EpochID("bid")
	if id3 == id1 {
		t.Fatal("delta publish did not roll the epoch ID")
	}
	// A decay advance also changes the aggregate → ID must roll again.
	s.AdvanceEpoch()
	id4, _ := s.EpochID("bid")
	if id4 == id3 || id4 == id1 {
		t.Fatalf("epoch advance did not roll the ID: %q", id4)
	}
	// Distinct builds never share an ID.
	if _, err := s.Publish(mkProf("other", 3, 4)); err != nil {
		t.Fatal(err)
	}
	idO, _ := s.EpochID("other")
	if idO == id4 {
		t.Fatal("distinct builds share an epoch ID")
	}
}

func TestDeltaPublishUsesInPlaceMerge(t *testing.T) {
	// Two delta publishes into one epoch must leave the cached aggregate
	// identical to a cold re-read, and the aggregate the caller already
	// fetched is extended in place (same backing entry, more samples).
	s := NewStore(StoreConfig{})
	if _, err := s.Publish(mkProf("bid", 1, 5)); err != nil {
		t.Fatal(err)
	}
	agg1, ok := s.Profile("bid")
	if !ok {
		t.Fatal("no aggregate after first publish")
	}
	if len(agg1.Samples) != 5 {
		t.Fatalf("aggregate samples = %d, want 5", len(agg1.Samples))
	}
	if _, err := s.Publish(mkProf("bid", 2, 3)); err != nil {
		t.Fatal(err)
	}
	agg2, _ := s.Profile("bid")
	if len(agg2.Samples) != 8 {
		t.Fatalf("delta-merged aggregate samples = %d, want 8", len(agg2.Samples))
	}
	// The delta path extended the cached aggregate rather than rebuilding:
	// the same *Profile is served.
	if agg1 != agg2 {
		t.Error("delta publish rebuilt the aggregate instead of extending it")
	}
}

// TestOneEpochAggregateSharesSamples: the aggregate of a build with one
// epoch is that epoch's sample list itself, not a copy, and a same-epoch
// publish after it leaves the list the caller already holds as it was,
// its spare capacity included, though the epoch's list grows in place.
func TestOneEpochAggregateSharesSamples(t *testing.T) {
	s := NewStore(StoreConfig{})
	// A delta into the epoch leaves its list with spare capacity.
	for _, p := range []*profile.Profile{mkProf("bid", 1, 4), mkProf("bid", 2, 1)} {
		if _, err := s.Publish(p); err != nil {
			t.Fatal(err)
		}
	}
	epoch := s.builds["bid"].epochs[0].prof
	if cap(epoch.Samples) == len(epoch.Samples) {
		t.Fatalf("probe broken: the epoch's list has no spare capacity (%d)", cap(epoch.Samples))
	}
	agg, _ := s.Profile("bid")
	if len(agg.Samples) != 5 || &agg.Samples[0] != &epoch.Samples[0] {
		t.Fatalf("the one-epoch aggregate (%d samples) does not share the epoch's list", len(agg.Samples))
	}
	held := agg.Samples
	before := append([]profile.Sample(nil), held[:cap(held)]...)

	if _, err := s.Publish(mkProf("bid", 3, 2)); err != nil {
		t.Fatal(err)
	}
	for i, smp := range held[:cap(held)] {
		if !slices.Equal(smp.Records, before[i].Records) {
			t.Fatalf("the publish wrote sample %d of the list the earlier aggregate handed out", i)
		}
	}
	agg2, _ := s.Profile("bid")
	want := profBytes(t, &profile.Profile{Binary: "pm", BuildID: "bid", Period: 211,
		Samples: append(append(mkProf("bid", 1, 4).Samples, mkProf("bid", 2, 1).Samples...), mkProf("bid", 3, 2).Samples...)})
	if !bytes.Equal(profBytes(t, agg2), want) || !bytes.Equal(profBytes(t, s.builds["bid"].epochs[0].prof), want) {
		t.Error("after the publish, the aggregate or the epoch is not the three publishes in order")
	}
}
