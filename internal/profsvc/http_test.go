package profsvc

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"propeller/internal/fleetprof"
	"propeller/internal/profile"
)

func newTestServer(t testing.TB) (*Store, *Service, *httptest.Server) {
	t.Helper()
	store := NewStore(StoreConfig{})
	svc := NewService(store)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return store, svc, ts
}

// TestPublishFetchRoundTrip: WPR3 bytes survive the real HTTP path —
// publish through the streaming reader, fetch the merged aggregate back,
// byte-identical to a direct store read.
func TestPublishFetchRoundTrip(t *testing.T) {
	store, svc, ts := newTestServer(t)
	svc.SetServing("bid1", 1)
	store.AdvanceEpoch()

	c := &Client{BaseURL: ts.URL}
	p := mkProf("bid1", 1, 9)
	rep, err := c.Publish(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BuildID != "bid1" || rep.Samples != 9 || rep.Retained != 9 || rep.Epoch != 1 {
		t.Fatalf("publish reply %+v", rep)
	}
	got, err := c.Fetch("bid1")
	if err != nil {
		t.Fatal(err)
	}
	want, ok := store.Profile("bid1")
	if !ok {
		t.Fatal("store lost the published build")
	}
	if !bytes.Equal(profBytes(t, got), profBytes(t, want)) {
		t.Fatal("fetched profile differs from store aggregate")
	}
	if !bytes.Equal(profBytes(t, got), profBytes(t, p)) {
		t.Fatal("single-epoch aggregate should round-trip the published payload")
	}
}

// TestPublishRejectsWrongBuildID: a payload for a binary the service is
// not serving is refused with 409 before its body is ingested.
func TestPublishRejectsWrongBuildID(t *testing.T) {
	store, svc, ts := newTestServer(t)
	svc.SetServing("current", 1)
	store.AdvanceEpoch()

	_, err := (&Client{BaseURL: ts.URL}).Publish(mkProf("stale", 1, 4))
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("want 409 conflict, got %v", err)
	}
	if st := store.Stats(); st.Published != 0 {
		t.Fatalf("rejected payload reached the store: %+v", st)
	}
}

// TestPublishRejectsNoBuildID: 400, not stored.
func TestPublishRejectsNoBuildID(t *testing.T) {
	store, _, ts := newTestServer(t)
	p := mkProf("", 1, 4)
	_, err := (&Client{BaseURL: ts.URL}).Publish(p)
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("want 400, got %v", err)
	}
	if st := store.Stats(); st.Published != 0 {
		t.Fatal("build-ID-less payload reached the store")
	}
}

// TestPublishRejectsCorruptPayload: garbage, truncated bodies and bytes
// after the last sample are 400s from the hardened reader and a body past
// maxPublishBytes is a 413 — whether the limit strikes inside the samples or
// in what trails them — never a stored profile or a panic.
func TestPublishRejectsCorruptPayload(t *testing.T) {
	store, _, ts := newTestServer(t)
	valid := profBytes(t, mkProf("bid", 1, 6))

	// A well-formed stream that never ends soon enough: the header of an
	// empty profile with its sample count (the last header byte) raised,
	// then full-depth samples of 10-byte varints for as long as the server
	// keeps reading.
	sample := binary.AppendUvarint(nil, profile.LBRDepth)
	for i := 0; i < 2*profile.LBRDepth; i++ {
		sample = binary.AppendUvarint(sample, math.MaxUint64)
	}
	empty := profBytes(t, mkProf("bid", 1, 0))
	endless := io.MultiReader(
		bytes.NewReader(binary.AppendUvarint(empty[:len(empty)-1], 1<<27)),
		&repeatReader{chunk: sample})

	for name, tc := range map[string]struct {
		body   io.Reader
		status int
	}{
		"garbage":   {strings.NewReader("not a profile at all"), http.StatusBadRequest},
		"badmagic":  {bytes.NewReader(append([]byte("XXXX"), valid[4:]...)), http.StatusBadRequest},
		"truncated": {bytes.NewReader(valid[:len(valid)-3]), http.StatusBadRequest},
		"trailing":  {bytes.NewReader(append(valid[:len(valid):len(valid)], 0)), http.StatusBadRequest},
		"twice":     {io.MultiReader(bytes.NewReader(valid), bytes.NewReader(valid)), http.StatusBadRequest},
		"oversized": {endless, http.StatusRequestEntityTooLarge},
		"oversized tail": {io.MultiReader(bytes.NewReader(valid), &repeatReader{chunk: sample}),
			http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(ts.URL+"/publish", "application/octet-stream", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", name, resp.StatusCode, tc.status)
		}
	}
	if st := store.Stats(); st.Published != 0 {
		t.Fatal("corrupt payload reached the store")
	}
}

// repeatReader yields chunk over and over, forever.
type repeatReader struct {
	chunk []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.chunk[r.off:])
		n += c
		r.off = (r.off + c) % len(r.chunk)
	}
	return n, nil
}

// TestFetchUnknownBuild404 and method enforcement on the mux patterns.
func TestFetchUnknownBuild404(t *testing.T) {
	_, _, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/profile/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, _, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/publish")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /publish: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/statusz", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /statusz: status %d, want 405", resp.StatusCode)
	}
}

// TestStatusz: plain text, reflects serving build, store state, and an
// attached fleet ingestion service.
func TestStatusz(t *testing.T) {
	store, svc, ts := newTestServer(t)
	svc.SetServing("bid9", 3)
	store.AdvanceEpoch()
	if _, err := (&Client{BaseURL: ts.URL}).Publish(mkProf("bid9", 1, 5)); err != nil {
		t.Fatal(err)
	}
	fs := fleetprof.NewService(fleetprof.ServiceConfig{Shards: 2})
	fs.Drain()
	svc.AttachFleet(fs)

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"profsvc generation 3",
		"serving build ID: bid9",
		"build bid9: epochs=1 samples=5",
		"2 shards",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("statusz missing %q:\n%s", want, body)
		}
	}
}
