// Fixture: cc-module violations — the backend layer reaching up into app
// (the session sits above every transport) and sideways into core, plus a
// literal-seeded Rng inside a backend (seeds must arrive through CcParams).
// The sim include is a permitted downward edge and must not fire.
// Expected findings: 2 layering + 1 seed-plumbing.
#include "app/session.h"     // finding 1: cc -> app
#include "core/metrics.h"    // finding 2: cc -> core
#include "sim/scheduler.h"   // OK: cc -> sim
#include "util/rng.h"        // OK: cc -> util

namespace qa::cc {

double fixture_backend_jitter() {
  Rng rng(7);  // finding 3: literal seed instead of CcParams plumbing
  return rng.uniform();
}

}  // namespace qa::cc
