// Congestion- and MLS-aware global router.
//
// The router is a three-phase engine (ROADMAP item 2, the nthu-route
// Route_2pinnets / RangeRouter structure):
//
//   1. decompose — every net becomes a driver-rooted spanning tree of 2-pin
//      edges (route/topology.hpp), the atomic routing unit;
//   2. shard — the gcell plane is tessellated into regions with halo
//      overlap and each shard's edges are routed as independent tasks on
//      flow::Executor under the GNNMLS_THREADS discipline
//      (route/shard.hpp);
//   3. negotiate — a deterministic PathFinder-style loop rips up the edges
//      crossing congested ranges and reroutes them with history-based
//      congestion costs until overflow converges or an iteration cap hits
//      (route/negotiate.hpp).
//
// Results are bit-identical at any thread count: workers only compute edge
// routes from frozen snapshots into disjoint slots, and every grid commit
// happens serially in an order derived from the deterministic route order.
// RouterOptions::negotiate = false selects the legacy single-pass serial
// engine (also the degradation target when negotiation overruns its
// watchdog budget).
//
// Layer-pair selection per edge is cost-driven: wire RC delay + via-stack
// resistance + congestion penalty (+ negotiated history), so short nets
// gravitate to thin lower metals and long nets to fat upper metals exactly
// as in a commercial flow's layer assignment.
//
// Metal Layer Sharing (paper Figure 1) is implemented as *targeted routing*:
// a net flagged for MLS has its long tree edges forced onto the top layer
// pair of the OTHER tier, entering and leaving through F2F bond pads (two
// extra vias of 0.5 Ohm / 0.2 fF plus the full via stack to the bond
// interface). In the heterogeneous stack this trades the 16nm die's thin
// metals for the 28nm die's fat ones — a large win for long nets and a loss
// for short ones, which is precisely the selectivity the GNN learns.
// Shared-layer tracks and F2F pads are finite, so indiscriminate MLS
// (the SOTA baseline) collapses into overflow detours.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/generators.hpp"
#include "route/grid.hpp"
#include "route/topology.hpp"
#include "tech/tech.hpp"

namespace gnnmls::route {

struct RouterOptions {
  GridConfig grid;
  // PDN reservation on each tier's top layer, set by the flow from the PDN
  // design (paper Table IV: M-T utilization 14% MAERI / 30% A7).
  double pdn_top_fraction[2] = {0.14, 0.14};
  // Clock-tree + shielding reservation: top pair of each tier loses this
  // fraction on top of the PDN straps (real stacks route CTS trunks there).
  double cts_top_fraction = 0.30;
  double cts_second_fraction = 0.22;
  // Tree edges shorter than this stay native even on MLS nets (an F2F hop
  // would dominate).
  double min_mls_edge_um = 16.0;
  // Congestion penalty weight (ps per gcell at 100% congestion).
  double congestion_penalty_ps = 2.0;
  // Detour growth: committed overflow inflates wirelength by up to this
  // factor (maze-detour stand-in).
  double max_detour = 2.5;
  // How many of the other tier's top layers MLS may use (paper: M5-6).
  int shared_layers = 2;

  // ---- sharded negotiated engine (route/negotiate.hpp) --------------------
  // false selects the legacy single-pass serial engine (route_all_serial).
  bool negotiate = true;
  // Shard side length in gcells for the initial parallel routing phase.
  int shard_gcells = 16;
  // Overflow-mask dilation: edges within this many gcells of a congested
  // range are negotiation rip-up victims (the shard halo overlap).
  int halo_gcells = 2;
  // Negotiation loop bounds.
  int max_negotiation_iters = 8;
  // Stop after this many consecutive iterations without strict improvement.
  int stagnation_limit = 2;
  // History cost added per unit of overflow per iteration (ps per visit).
  double history_gain_ps = 1.5;
  // Cooperative wall-clock watchdog for decompose+shard+negotiate: when
  // > 0, overrunning it throws a retryable ft::FlowError(kTimeout), which
  // RoutePass degrades into a serial route_all. 0 disables the budget.
  double negotiation_budget_s = 0.0;
};

// Electrical + physical result for one routed net.
struct NetRoute {
  float wl_um = 0.0f;        // total routed wirelength (incl. detour)
  float res_ohm = 0.0f;      // total wire+via resistance
  float cap_ff = 0.0f;       // total wire+via+F2F capacitance (excl. pins)
  float load_ff = 0.0f;      // cap_ff + sum of sink pin caps (driver load)
  float detour = 1.0f;       // committed detour factor >= 1
  std::uint8_t layers_used[2] = {0, 0};  // bitmask, bit i = layer Mi+1
  std::uint8_t f2f_vias = 0;
  bool mls_applied = false;  // net actually used shared layers
  float worst_overflow = 0.0f;     // max usage/capacity along the route
  std::vector<float> sink_elmore_ps;  // parallel to Net::sinks
};

struct RouteSummary {
  double total_wl_m = 0.0;    // meters, as reported in Tables IV/V
  std::size_t mls_nets = 0;   // nets routed with shared layers
  std::size_t f2f_pairs = 0;  // F2F via count
  RoutingGrid::Census census;
  // Delta contract: changed_nets/changed_edges are filled ONLY by
  // reroute_nets() — the nets (and the 2-pin edges within them) whose
  // routed value actually changed; a rerouted net that lands on an
  // identical route is not listed. Feed changed_nets to
  // TimingGraph::update(). After route_all() BOTH lists are empty by
  // definition: a full route is a full invalidation, not a delta, and the
  // route pass records it with DesignDB::RouteDelta::valid == false so no
  // downstream consumer can mistake "empty" for "nothing changed".
  // (Pinned by RouterDelta.RouteAllReportsNoDeltaRerouteReportsExact.)
  std::vector<netlist::Id> changed_nets;
  std::vector<EdgeRef> changed_edges;
  // Negotiation statistics of the producing route_all (0 for the serial
  // engine and for reroute_nets' ECO repairs).
  std::size_t negotiation_iters = 0;
  std::size_t negotiation_ripups = 0;
};

// How reroute_nets repairs the routing state after an ECO.
enum class RerouteMode {
  // Minimal rip-up: only the dirty (and any brand-new) nets are ripped up
  // and re-routed against the surviving congestion state (and, under the
  // negotiated engine, the surviving history surface). Fast — cost scales
  // with the dirty set — but the result can differ from a from-scratch
  // route_all because rerouted nets see congestion out of order. This is the
  // ECO mode for netlist-changing passes (DFT/scan insertion), where
  // from-scratch equivalence is undefined anyway.
  kEco,
  // Bit-exact with route_all: the routing state is rebuilt by a full
  // deterministic re-run under the new flags and the summary reports the
  // exact value diff against the previous state. (The pre-negotiation
  // engine replayed only the order suffix after the first dirty net; a
  // negotiated result has no such suffix structure, so replay mode now
  // re-runs the whole engine — equivalence with route_all holds by
  // construction and the incremental-equivalence property test enforces
  // it.) Requires an unchanged netlist.
  kReplay,
};

class Router {
 public:
  Router(const netlist::Design& design, const tech::Tech3D& tech,
         const RouterOptions& options = {});

  // Routes every net with the engine selected by options.negotiate.
  // mls_flags is per-net (empty = no MLS anywhere). Resets any previous
  // routing state, including the negotiation history.
  RouteSummary route_all(const std::vector<std::uint8_t>& mls_flags);
  // The legacy single-pass engine: nets in deterministic route order, each
  // edge committed as soon as it is chosen, no negotiation. Used as the
  // degradation target when negotiation overruns its budget, and as the
  // baseline of the nets/s benchmark.
  RouteSummary route_all_serial(const std::vector<std::uint8_t>& mls_flags);

  // Incremental repair after `dirty` nets changed (connectivity, placement
  // of their pins, or their MLS flag). Nets added to the netlist since the
  // last route are implicitly dirty. `mls_flags` replaces the stored
  // decision vector; the overload without it keeps the previous decisions.
  RouteSummary reroute_nets(std::span<const netlist::Id> dirty,
                            const std::vector<std::uint8_t>& mls_flags,
                            RerouteMode mode = RerouteMode::kEco);
  RouteSummary reroute_nets(std::span<const netlist::Id> dirty,
                            RerouteMode mode = RerouteMode::kEco);

  // Netlist revision the current routes were built against (0 = never
  // routed). The RT-005 check compares this with design.nl.revision() to
  // detect an ECO that was not followed by a re-route.
  std::uint64_t routed_revision() const { return routed_revision_; }

  // What-if route of one net against the CURRENT congestion state (and
  // history surface), without committing resources. Used by the labeler's
  // per-net MLS trials. Truly const: the edge router is pure with respect
  // to the grid, so a trial can never leak usage — the zero-write audit
  // property test pins this.
  NetRoute trial_route(netlist::Id net, bool mls) const;

  const NetRoute& net_route(netlist::Id net) const { return routes_[net]; }
  const std::vector<NetRoute>& routes() const { return routes_; }
  // Per-net 2-pin decomposition and per-edge results of the last (re)route.
  const NetTopology& net_topology(netlist::Id net) const { return topo_[net]; }
  const std::vector<EdgeRoute>& net_edges(netlist::Id net) const { return edge_routes_[net]; }
  const RoutingGrid& grid() const { return grid_; }
  const RouterOptions& options() const { return options_; }

  // "M1-4(bot)+M6(top)" style rendering for Table I.
  static std::string describe_layers(const NetRoute& r);

  // Deep copy of every mutable routing artifact (routes, per-edge results
  // and commit footprints, topologies, negotiation history, decision
  // vector, grid usage, routed revision). checkpoint()/restore() bracket
  // transactional pass execution: a pass that dies mid-route leaves partial
  // grid usage and a prefix of committed edges, and restoring the
  // checkpoint makes the router bit-identical to its pre-dispatch state.
  // The per-net nested containers (topologies, per-edge results, commit
  // footprints) are serialized into a handful of contiguous arrays:
  // checkpoint() runs on the hot path of every transactional wave, and flat
  // packing makes it a few bulk copies instead of O(nets x edges) small
  // allocations. restore() — the rare rollback path — pays the unpack.
  struct Checkpoint {
    std::vector<NetRoute> routes;
    std::vector<std::uint32_t> term_count;   // per net
    std::vector<Terminal> terms;             // concatenated topology terminals
    std::vector<int> parents;                // concatenated topology parents
    std::vector<std::uint32_t> edge_count;   // per net
    std::vector<EdgeRoute> edge_routes;      // concatenated per-edge results
    std::vector<std::uint32_t> commit_edge_count;  // per net
    std::vector<std::uint32_t> track_count;  // per concatenated commit edge
    std::vector<std::uint32_t> f2f_count;    // per concatenated commit edge
    std::vector<std::uint32_t> tracks;       // concatenated commit track cells
    std::vector<std::uint32_t> f2f;          // concatenated commit F2F pads
    std::vector<float> history;
    std::vector<std::uint8_t> mls_flags;
    std::uint64_t routed_revision = 0;
    RoutingGrid::UsageState grid;
  };
  Checkpoint checkpoint() const;
  void restore(const Checkpoint& cp);

 private:
  // Clears grid usage + history and resizes every per-net artifact for the
  // current netlist, installing `mls_flags` as the decision vector.
  void reset_state(const std::vector<std::uint8_t>& mls_flags);
  RouteSummary route_all_negotiated(const std::vector<std::uint8_t>& mls_flags);
  // Re-decomposes and routes one net edge-by-edge against the current grid
  // state (serial engine and ECO repairs). With commit, each edge's usage
  // lands before the next edge is chosen and the footprints/topology are
  // stored on the router.
  NetRoute route_net(netlist::Id net, bool mls, bool commit);
  void rip_up(netlist::Id net);
  void finish_route_all(RouteSummary& summary);
  // Deterministic total route order for the given decisions (MLS nets first
  // by descending HPWL, then native ascending, net id as the tie-break).
  std::vector<netlist::Id> route_order(const std::vector<std::uint8_t>& mls_flags) const;
  RouteSummary summarize() const;
  bool flag_of(const std::vector<std::uint8_t>& flags, netlist::Id net) const {
    return !flags.empty() && net < flags.size() && flags[net] != 0;
  }
  const float* history_or_null() const {
    return history_.empty() ? nullptr : history_.data();
  }

  const netlist::Design& design_;
  const tech::Tech3D& tech_;
  RouterOptions options_;
  RoutingGrid grid_;
  std::vector<NetRoute> routes_;
  std::vector<NetTopology> topo_;                  // parallel to routes_
  std::vector<std::vector<EdgeRoute>> edge_routes_;  // parallel to routes_
  std::vector<NetCommit> commits_;                 // parallel to routes_
  std::vector<float> history_;  // negotiated congestion history (may be empty)
  std::vector<std::uint8_t> mls_flags_;   // decisions of the last (re)route
  std::uint64_t routed_revision_ = 0;
};

}  // namespace gnnmls::route
