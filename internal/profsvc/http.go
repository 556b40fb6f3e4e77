package profsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"propeller/internal/fleetprof"
	"propeller/internal/profile"
)

// Service is the HTTP front end of the continuous profile-build service.
// It accepts WPR3 profile payloads on POST /publish (streamed through the
// hardened reader, never materializing untrusted bytes ahead of
// validation), serves the current merged aggregate per build on
// GET /profile/{buildID}, and exposes GET /statusz.
type Service struct {
	store *Store

	mu         sync.Mutex
	serving    string // build ID publishes must match ("" accepts any)
	generation int
	fleet      *fleetprof.Service // optional, folded into statusz

	accepted  int64
	rejected  int64
	servedGet int64
}

// NewService wraps a store in the HTTP front end.
func NewService(store *Store) *Service {
	return &Service{store: store}
}

// SetServing declares the build ID of the currently deployed binary and
// the loop generation. Publishes carrying a different non-empty build ID
// are rejected with 409 Conflict — the service-side half of build-ID
// enforcement (collectors enforce it too, but a central service cannot
// trust every collector to be current).
func (s *Service) SetServing(buildID string, generation int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.serving = buildID
	s.generation = generation
}

// AttachFleet folds a fleet ingestion service's statusz into this
// service's /statusz page.
func (s *Service) AttachFleet(f *fleetprof.Service) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fleet = f
}

// PublishReply is the JSON body of a successful POST /publish.
type PublishReply struct {
	BuildID string `json:"buildID"`
	Samples int    `json:"samples"`
	// Retained is the build's total retained sample count after the merge.
	Retained int64 `json:"retained"`
	Epoch    int   `json:"epoch"`
}

// maxPublishBytes caps one POST /publish body. The declared sample count
// is attacker-chosen and every sample is held in memory until the store
// accepts the payload, so the body bound is the memory bound. 128MB is
// about 500k full-depth samples: the merged profile of a five-host fleet
// at the generation driver's default profiling budget.
const maxPublishBytes = 128 << 20

// errReject marks a validation failure with the HTTP status it maps to.
type errReject struct {
	status int
	msg    string
}

func (e *errReject) Error() string { return e.msg }

// Handler returns the service's HTTP mux:
//
//	POST /publish            — ingest one WPR3 profile payload
//	GET  /profile/{buildID}  — current merged aggregate, WPR3 bytes
//	GET  /statusz            — plain-text state snapshot
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /publish", s.handlePublish)
	mux.HandleFunc("GET /profile/{buildID}", s.handleProfile)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	return mux
}

func (s *Service) handlePublish(w http.ResponseWriter, r *http.Request) {
	d, err := profile.NewDecoder(http.MaxBytesReader(w, r.Body, maxPublishBytes))
	if err == nil {
		// Checked at the header: a mismatched profile costs no body decode.
		err = s.checkBuildID(d.Header.BuildID)
	}
	var p *profile.Profile
	if err == nil {
		p, err = d.Profile()
	}
	var retained int64
	if err == nil {
		retained, err = s.store.Publish(p)
	}
	if err != nil {
		s.reject(w, err)
		return
	}
	s.mu.Lock()
	s.accepted++
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(PublishReply{
		BuildID:  p.BuildID,
		Samples:  len(p.Samples),
		Retained: retained,
		Epoch:    s.store.Epoch(),
	})
}

func (s *Service) checkBuildID(id string) error {
	if id == "" {
		return &errReject{http.StatusBadRequest, "profile has no build ID"}
	}
	s.mu.Lock()
	serving := s.serving
	s.mu.Unlock()
	if serving != "" && id != serving {
		return &errReject{http.StatusConflict,
			fmt.Sprintf("profile build ID %s does not match serving build ID %s", id, serving)}
	}
	return nil
}

func (s *Service) reject(w http.ResponseWriter, err error) {
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
	var rej *errReject
	if errors.As(err, &rej) {
		http.Error(w, rej.msg, rej.status)
		return
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	// Anything else from the streaming reader is a malformed payload.
	http.Error(w, err.Error(), http.StatusBadRequest)
}

func (s *Service) handleProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("buildID")
	p, ok := s.store.Profile(id)
	if !ok {
		http.Error(w, "no profile for build ID "+id, http.StatusNotFound)
		return
	}
	s.mu.Lock()
	s.servedGet++
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(p.AppendWire(nil))
}

func (s *Service) handleStatusz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	serving, gen, fleet := s.serving, s.generation, s.fleet
	accepted, rejected, served := s.accepted, s.rejected, s.servedGet
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "profsvc generation %d\n", gen)
	if serving == "" {
		fmt.Fprintf(w, "serving build ID: (any)\n")
	} else {
		fmt.Fprintf(w, "serving build ID: %s\n", serving)
	}
	fmt.Fprintf(w, "publishes: accepted=%d rejected=%d profile-gets=%d\n",
		accepted, rejected, served)
	st := s.store.Stats()
	fmt.Fprintf(w, "store: epoch=%d builds=%d epochs=%d samples=%d published=%d evicted-epochs=%d evicted-builds=%d decayed-drops=%d\n",
		st.Epoch, st.Builds, st.Epochs, st.Samples, st.Published,
		st.EvictedEpochs, st.EvictedBuilds, st.DecayedDrops)
	for _, bi := range s.store.Builds() {
		fmt.Fprintf(w, "  build %s: epochs=%d samples=%d last-publish=%d\n",
			bi.BuildID, bi.Epochs, bi.Samples, bi.LastPublish)
	}
	if fleet != nil {
		fmt.Fprintf(w, "\n")
		fleet.Statusz(w)
	}
}

// Client is the collector-side client of the service's HTTP API. The
// generation driver uses it when configured with a real server, proving
// the loop works over the wire and not just via direct store calls.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8345".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Publish serializes the profile and POSTs it to /publish.
func (c *Client) Publish(p *profile.Profile) (PublishReply, error) {
	var rep PublishReply
	resp, err := c.http().Post(c.BaseURL+"/publish", "application/octet-stream", bytes.NewReader(p.AppendWire(nil)))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("profsvc: publish: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, fmt.Errorf("profsvc: publish reply: %w", err)
	}
	return rep, nil
}

// Fetch GETs the current merged aggregate for a build ID.
func (c *Client) Fetch(buildID string) (*profile.Profile, error) {
	resp, err := c.http().Get(c.BaseURL + "/profile/" + buildID)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("profsvc: fetch %s: %s: %s", buildID, resp.Status, bytes.TrimSpace(body))
	}
	return profile.Read(resp.Body)
}
