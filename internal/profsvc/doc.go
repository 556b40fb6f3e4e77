// Package profsvc is the continuous profile-build service: the long-lived
// central tier that closes the paper's operational loop. Propeller's
// deployment story is not one relink but a cycle — the fleet is profiled,
// the binary is relinked, the new binary is redeployed, and the fleet is
// profiled again — and the paper's claim over BOLT is that this cycle is
// *stable*: layouts converge to a fixed point instead of oscillating.
// The http/statusz options of Google's propeller tooling exist precisely
// to run such a central service; this package builds it from the tiers
// already in the tree:
//
//   - an HTTP front end (POST /publish, GET /profile/<buildID>,
//     GET /statusz) that accepts WPR3 profile payloads through the
//     hardened streaming reader, enforces build-ID matching, and serves
//     the current merged aggregate per build;
//   - a versioned profile Store keyed by build ID, with per-generation
//     epoch retention, exponential sample-count decay of stale epochs,
//     and delta merge via profile.Merge — a publish folds into the
//     current epoch without re-reading anything already stored;
//   - an admission Scorer extending fleetprof.Gate with freshness and
//     hot-function-overlap criteria that gate a rebuild on the profile
//     actually being representative of the serving binary;
//   - a generation Driver that closes the loop: collect a fleet profile
//     of the deployed binary, publish it, score it, relink through
//     core.Relink (producing a new content-hash build ID), measure the
//     candidate, and redeploy the collectors against it — adopting a
//     candidate only on strict improvement, the rollout hysteresis that
//     makes generation-over-generation convergence provable.
//
// The determinism contracts of fleetprof (bit-identical merged profiles
// at every shard/worker/fault configuration) and wpa (bit-identical
// layouts at every worker count) compose here into the headline property:
// the whole K-generation loop is bit-reproducible, layouts reach a
// byte-identical fixed point within a few generations, and the modeled
// speedup never regresses — the iterative stability the paper claims.
package profsvc
