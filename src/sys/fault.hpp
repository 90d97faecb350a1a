// Fault-injection registry for robustness tests.
//
// Sites in production code are named strings wrapped in GRIND_FAULT_FIRE /
// GRIND_FAULT_STALL macros.  Without -DGRIND_FAULT_INJECT the macros expand
// to constants, so release builds carry zero overhead and no registry symbol.
// With it, tests arm a site with a Spec — probabilistic (seeded, deterministic
// across runs) or scripted ("fire on the Nth hit, then stop") — and the site
// misbehaves on demand: throwing paths call fire(), latency paths call
// stall().
//
// Registered sites:
//   "service.execute-alloc"  a query's execution throws bad_alloc on entry
//   "service.worker-stall"   worker sleeps before executing a query
//   "engine.poll-cancel"     edge_map entry poll acts as if the token fired
#pragma once

#ifdef GRIND_FAULT_INJECT

#include <cstdint>
#include <string>

namespace grind::sys::fault {

/// Trigger description for one armed site.
struct Spec {
  double probability = 1.0;   ///< chance a hit fires (after `after` is met)
  std::uint64_t after = 0;    ///< skip the first `after` hits
  std::uint64_t limit = 0;    ///< max fires; 0 = unlimited
  std::uint32_t stall_ms = 0; ///< sleep length for stall() sites
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;  ///< per-site RNG seed
};

/// Arm `site`; replaces any previous spec and resets its counters.
void arm(const std::string& site, Spec spec);

/// Disarm every site and clear all counters.
void disarm_all();

/// Called from production code: returns true when the site should misbehave.
/// Unarmed sites always return false.  Thread-safe.
bool fire(const std::string& site);

/// Called from production code: sleeps `stall_ms` when the site fires.
void stall(const std::string& site);

/// Total times `site` was polled (armed sites only).
std::uint64_t hits(const std::string& site);

/// Times `site` actually fired.
std::uint64_t triggered(const std::string& site);

}  // namespace grind::sys::fault

#define GRIND_FAULT_FIRE(site) ::grind::sys::fault::fire(site)
#define GRIND_FAULT_STALL(site) ::grind::sys::fault::stall(site)

#else  // !GRIND_FAULT_INJECT

#define GRIND_FAULT_FIRE(site) false
#define GRIND_FAULT_STALL(site) ((void)0)

#endif  // GRIND_FAULT_INJECT
