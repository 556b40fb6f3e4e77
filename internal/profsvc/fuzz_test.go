package profsvc

import (
	"bytes"
	"net/http"
	"testing"
)

// FuzzPublish posts arbitrary bodies to a live /publish with a serving build
// ID set: the answer is 200, 400 (malformed, or a profile the store cannot
// merge), 409 (another build) or 413, never a panic or a hung connection,
// and the store changes only on a 200.
func FuzzPublish(f *testing.F) {
	valid := mkProf("bid", 1, 6).AppendWire(nil)
	f.Add(valid)
	f.Add(mkProf("bid", 2, 0).AppendWire(nil))
	f.Add(mkProf("stale", 1, 4).AppendWire(nil))
	f.Add(mkProf("", 1, 4).AppendWire(nil))
	f.Add(valid[:len(valid)-3])
	f.Add(append(valid[:len(valid):len(valid)], 0))
	f.Add(append(valid[:len(valid):len(valid)], valid...))
	f.Add([]byte("WPR2"))
	f.Add([]byte("not a profile at all"))

	store, svc, ts := newTestServer(f)
	svc.SetServing("bid", 1)
	store.AdvanceEpoch()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := store.Stats()
		resp, err := http.Post(ts.URL+"/publish", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		after := store.Stats()
		switch resp.StatusCode {
		case http.StatusOK:
			if after.Published != before.Published+1 {
				t.Fatalf("200, but the store counts %d publishes after %d", after.Published, before.Published)
			}
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
			if after.Published != before.Published || after.Samples != before.Samples {
				t.Fatalf("%d, but the store moved: %+v -> %+v", resp.StatusCode, before, after)
			}
		default:
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
}
