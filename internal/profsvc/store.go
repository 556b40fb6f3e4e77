package profsvc

import (
	"fmt"
	"sort"
	"sync"

	"propeller/internal/profile"
)

// StoreConfig tunes the versioned profile store's retention policy.
type StoreConfig struct {
	// MaxEpochs is how many profiling epochs (generations) are retained per
	// build ID (default 2). Older epochs are evicted oldest-first. A small
	// window is what makes the generation loop converge: once the same
	// deployed binary has been profiled MaxEpochs times, the aggregate the
	// analyzer sees is stationary from one generation to the next.
	MaxEpochs int
	// MaxBuilds is how many distinct build IDs are retained (default 3) —
	// enough for the deployed binary, the candidate, and one rollback.
	// Eviction is least-recently-published first.
	MaxBuilds int
	// DecayShift controls exponential sample-count decay of stale epochs:
	// an epoch that is age generations old contributes only
	// len(samples) >> (DecayShift*age) of its samples to the aggregate
	// (default shift 1, i.e. half-life of one generation). Epochs decayed
	// to zero samples are evicted at the next epoch advance.
	DecayShift uint
}

func (c StoreConfig) maxEpochs() int {
	if c.MaxEpochs < 1 {
		return 2
	}
	return c.MaxEpochs
}

func (c StoreConfig) maxBuilds() int {
	if c.MaxBuilds < 1 {
		return 3
	}
	return c.MaxBuilds
}

func (c StoreConfig) decayShift() uint {
	if c.DecayShift == 0 {
		return 1
	}
	return c.DecayShift
}

// epochEntry is one epoch's worth of published samples for one build.
type epochEntry struct {
	seq  int // epoch number at publish time
	prof *profile.Profile
}

// buildEntry is everything the store holds for one build ID.
type buildEntry struct {
	buildID     string
	lastPublish int // epoch of the most recent publish, for LRU eviction
	epochs      []*epochEntry
	// agg caches the decayed aggregate across epochs; publishes within the
	// current epoch delta-merge into it instead of re-merging everything.
	agg      *profile.Profile
	aggValid bool
	// version counts aggregate-content changes (publishes and decay
	// advances); EpochID derives from it, so any downstream cache keyed
	// by the ID invalidates exactly when the aggregate changes.
	version int64
}

// Store is the versioned profile store: published profiles are keyed by
// build ID, bucketed into epochs (one per service generation), and served
// as a decayed merged aggregate. Publishing is a delta merge — each payload
// folds into the current epoch and the cached aggregate without re-reading
// anything already stored. Safe for concurrent use.
type Store struct {
	cfg StoreConfig

	mu     sync.Mutex
	epoch  int
	builds map[string]*buildEntry

	published     int64
	evictedEpochs int64
	evictedBuilds int64
	decayedDrops  int64
}

// StoreStats is a snapshot of the store's retention accounting.
type StoreStats struct {
	Epoch         int   `json:"epoch"`
	Builds        int   `json:"builds"`
	Epochs        int   `json:"epochs"`
	Samples       int64 `json:"samples"`
	Published     int64 `json:"published"`
	EvictedEpochs int64 `json:"evictedEpochs"`
	EvictedBuilds int64 `json:"evictedBuilds"`
	// DecayedDrops counts samples dropped from aggregates by exponential
	// decay of stale epochs (cumulative, over rebuilt aggregates).
	DecayedDrops int64 `json:"decayedDrops"`
}

// BuildInfo summarizes one build's retained state, for statusz.
type BuildInfo struct {
	BuildID     string `json:"buildID"`
	Epochs      int    `json:"epochs"`
	Samples     int64  `json:"samples"`
	LastPublish int    `json:"lastPublish"`
}

// NewStore creates a store with the given retention policy.
func NewStore(cfg StoreConfig) *Store {
	return &Store{cfg: cfg, builds: make(map[string]*buildEntry)}
}

// Publish folds one profile into the store under its build ID, returning
// the build's total retained (undecayed) sample count. A publish within
// the current epoch delta-merges into that epoch's entry and the cached
// aggregate; the first publish of a new epoch opens a fresh epoch bucket
// and trims the build to MaxEpochs.
func (s *Store) Publish(p *profile.Profile) (int64, error) {
	if p == nil {
		return 0, fmt.Errorf("profsvc: nil profile")
	}
	if p.BuildID == "" {
		return 0, fmt.Errorf("profsvc: refusing to store a profile with no build ID")
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	be := s.builds[p.BuildID]
	if be == nil {
		s.evictBuildsLocked(s.cfg.maxBuilds() - 1)
		be = &buildEntry{buildID: p.BuildID}
		s.builds[p.BuildID] = be
	}
	be.lastPublish = s.epoch

	if n := len(be.epochs); n > 0 && be.epochs[n-1].seq == s.epoch {
		// Delta path: same epoch, same build — extend in place. The store
		// owns both the epoch profile and the cached aggregate, so the
		// delta appends into their backing arrays (profile.MergeInto)
		// instead of reallocating everything already retained.
		cur := be.epochs[n-1]
		if err := profile.MergeInto(cur.prof, p); err != nil {
			return 0, err
		}
		if be.aggValid {
			if err := profile.MergeInto(be.agg, p); err != nil {
				return 0, err
			}
		}
	} else {
		cp := &profile.Profile{Binary: p.Binary, BuildID: p.BuildID, Period: p.Period}
		cp.Samples = append(cp.Samples, p.Samples...)
		if n > 0 {
			// Sanity-check compatibility with what's already retained.
			if _, err := profile.Merge(be.epochs[n-1].prof, cp); err != nil {
				return 0, err
			}
		}
		be.epochs = append(be.epochs, &epochEntry{seq: s.epoch, prof: cp})
		for len(be.epochs) > s.cfg.maxEpochs() {
			be.epochs = be.epochs[1:]
			s.evictedEpochs++
		}
		be.aggValid = false
	}
	be.version++
	s.published++

	var total int64
	for _, e := range be.epochs {
		total += int64(len(e.prof.Samples))
	}
	return total, nil
}

// AdvanceEpoch starts a new profiling epoch (the driver calls this once
// per generation). Every retained epoch ages by one: epochs whose decayed
// contribution reaches zero samples are evicted, and builds left with no
// epochs are forgotten entirely — a build ID that never recurs decays out
// of the store instead of pinning memory forever.
func (s *Store) AdvanceEpoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	shift := s.cfg.decayShift()
	for id, be := range s.builds {
		kept := be.epochs[:0]
		for _, e := range be.epochs {
			if decayedKeep(len(e.prof.Samples), shift, s.epoch-e.seq) > 0 {
				kept = append(kept, e)
			} else {
				s.evictedEpochs++
				be.aggValid = false
			}
		}
		be.epochs = kept
		// Ages changed, so any cached decayed aggregate is stale.
		be.aggValid = false
		be.version++
		if len(be.epochs) == 0 {
			delete(s.builds, id)
			s.evictedBuilds++
		}
	}
	return s.epoch
}

// decayedKeep is the number of samples an epoch of the given size and age
// contributes after exponential decay.
func decayedKeep(n int, shift uint, age int) int {
	if age <= 0 {
		return n
	}
	total := shift * uint(age)
	if total > 62 {
		return 0
	}
	return n >> total
}

// Profile returns the current decayed merged aggregate for a build ID, or
// (nil, false) if the store holds nothing for it. The returned profile is
// owned by the store; callers must not mutate it.
func (s *Store) Profile(buildID string) (*profile.Profile, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	be := s.builds[buildID]
	if be == nil || len(be.epochs) == 0 {
		return nil, false
	}
	if !be.aggValid {
		shift := s.cfg.decayShift()
		parts := make([]*profile.Profile, 0, len(be.epochs))
		for _, e := range be.epochs {
			keep := decayedKeep(len(e.prof.Samples), shift, s.epoch-e.seq)
			s.decayedDrops += int64(len(e.prof.Samples) - keep)
			parts = append(parts, &profile.Profile{
				Binary:  e.prof.Binary,
				BuildID: e.prof.BuildID,
				Period:  e.prof.Period,
				Samples: e.prof.Samples[:keep:keep],
			})
		}
		if len(parts) == 1 {
			// One epoch is its own aggregate: it shares the epoch's
			// samples rather than copy them. The clamp makes a later
			// MergeInto of the aggregate reallocate, and keeps the
			// epoch's own appends out of it.
			be.agg = parts[0]
		} else {
			agg, err := profile.Merge(parts...)
			if err != nil {
				// Unreachable: Publish enforced compatibility on the way in.
				return nil, false
			}
			be.agg = agg
		}
		be.aggValid = true
	}
	return be.agg, true
}

// Epoch returns the current epoch number.
func (s *Store) Epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// EpochID names the current aggregate content for a build: a stable
// fingerprint that changes exactly when a publish or a decay advance
// changes what Profile(buildID) would return. It is the profile-epoch
// key the incremental analyzer (wpa.Config.ProfileEpoch) wants: under an
// unchanged EpochID, cached aggregates and layouts may be reused; any
// ingestion or decay event rolls the ID and invalidates them. Returns
// ("", false) when the store holds nothing for the build.
func (s *Store) EpochID(buildID string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	be := s.builds[buildID]
	if be == nil || len(be.epochs) == 0 {
		return "", false
	}
	return fmt.Sprintf("%s@e%d.v%d", buildID, s.epoch, be.version), true
}

// Stats snapshots the store's retention accounting.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Epoch:         s.epoch,
		Builds:        len(s.builds),
		Published:     s.published,
		EvictedEpochs: s.evictedEpochs,
		EvictedBuilds: s.evictedBuilds,
		DecayedDrops:  s.decayedDrops,
	}
	for _, be := range s.builds {
		st.Epochs += len(be.epochs)
		for _, e := range be.epochs {
			st.Samples += int64(len(e.prof.Samples))
		}
	}
	return st
}

// Builds lists retained builds, most recently published first (ties broken
// by build ID for determinism).
func (s *Store) Builds() []BuildInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BuildInfo, 0, len(s.builds))
	for _, be := range s.builds {
		bi := BuildInfo{BuildID: be.buildID, Epochs: len(be.epochs), LastPublish: be.lastPublish}
		for _, e := range be.epochs {
			bi.Samples += int64(len(e.prof.Samples))
		}
		out = append(out, bi)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LastPublish != out[j].LastPublish {
			return out[i].LastPublish > out[j].LastPublish
		}
		return out[i].BuildID < out[j].BuildID
	})
	return out
}

// evictBuildsLocked evicts least-recently-published builds until at most
// max remain (ties broken by build ID so eviction is deterministic).
func (s *Store) evictBuildsLocked(max int) {
	if max < 0 {
		max = 0
	}
	for len(s.builds) > max {
		victim := ""
		oldest := 0
		for id, be := range s.builds {
			if victim == "" || be.lastPublish < oldest ||
				(be.lastPublish == oldest && id < victim) {
				victim, oldest = id, be.lastPublish
			}
		}
		delete(s.builds, victim)
		s.evictedBuilds++
	}
}
