// Phase 2 of the routing engine: deterministic negotiated congestion.
//
// PathFinder-style rip-up-and-reroute over the 2-pin edges produced by
// route/topology.hpp, starting from the in-order initial route that
// Router::route_all commits first (phase 1). While track or F2F overflow
// remains: bump a per-cell history cost on every overflowed cell, rip up
// every committed edge whose footprint intersects the halo-dilated overflow
// mask, reroute all victims concurrently against the frozen post-rip-up grid
// + the updated history surface, and commit serially in edge order. An
// iteration that makes the overflow census worse is reverted exactly
// (per-edge footprints make rip-up/recommit lossless), so the final state is
// never worse than the initial route.
//
// Determinism: every grid write happens on the calling thread in an order
// derived only from the deterministic edge list; worker threads compute
// EdgeRoutes into disjoint slots from read-only state. History bumps are
// commutative sums applied serially. The result is therefore a pure
// function of (netlist, flags, options) — bit-identical at any
// GNNMLS_THREADS, which the thread-sweep tests and ci.sh gate enforce.
//
// The loop is watchdog-budgeted (RouterOptions::negotiation_budget_s): once
// the budget is spent, the loop stops at the top of the next iteration and
// reports it in NegotiationStats::budget_exhausted. The state at that point
// is always legal — the initial route or a later state that is no worse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "route/router.hpp"

namespace gnnmls::route {

// One 2-pin routing task: an edge of some net's topology plus everything
// route_edge() needs to run it in isolation.
struct EdgeTask {
  netlist::Id net = 0;
  std::uint32_t edge = 0;
  Terminal a, b;   // parent terminal, child terminal
  bool mls = false;
};

struct NegotiationStats {
  std::size_t iterations = 0;        // negotiation iterations executed
  std::size_t ripups = 0;            // edge rip-ups across all iterations
  std::size_t initial_overflow = 0;  // track + F2F overflow cells before negotiation
  std::size_t final_overflow = 0;    // ... after negotiation
  bool converged = false;            // final overflow reached zero
  bool budget_exhausted = false;     // stopped by negotiation_budget_s
};

// Everything route_negotiated() works on. `edges` is the deterministic
// global edge order; `edge_routes`/`commits` hold the committed initial
// route (one slot per topology edge) and are updated in place. `history`
// must be sized to the grid's track cells and is both consumed and updated.
struct NegotiationInput {
  RoutingGrid& grid;
  const tech::Tech3D& tech;
  const RouterOptions& options;
  std::span<const EdgeTask> edges;
  std::vector<float>& history;
  std::vector<std::vector<EdgeRoute>>& edge_routes;
  std::vector<NetCommit>& commits;
};

NegotiationStats route_negotiated(const NegotiationInput& in);

}  // namespace gnnmls::route
