// Tests for re-routing a routed design. A flag flip re-runs route_all on
// the live router, which must be bit-exact with a fresh router's route_all
// under the same flags (randomized flag flips drive it). The netlist-ECO
// repair, Router::reroute_nets, is a no-op on an empty dirty set, routes
// the nets added since the last route and re-routes the ones an ECO
// touched, and a DFT insertion repaired that way passes the strict
// integrity checks.
#include <gtest/gtest.h>

#include "mls/flow.hpp"
#include "netlist/buffering.hpp"
#include "netlist/generators.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "util/rng.hpp"

namespace {

using namespace gnnmls;
using netlist::Id;
using route::RouteSummary;
using route::Router;

netlist::Design placed_16pe(tech::Tech3D& tech3d) {
  netlist::Design d = netlist::make_maeri_16pe();
  tech3d = tech::make_hetero_tech(d.info.beol_layers);
  netlist::insert_buffer_trees(d.nl);
  place::place(d, tech3d);
  return d;
}

void expect_route_equal(const route::NetRoute& a, const route::NetRoute& b, Id net) {
  EXPECT_EQ(a.wl_um, b.wl_um) << "net " << net;
  EXPECT_EQ(a.res_ohm, b.res_ohm) << "net " << net;
  EXPECT_EQ(a.cap_ff, b.cap_ff) << "net " << net;
  EXPECT_EQ(a.load_ff, b.load_ff) << "net " << net;
  EXPECT_EQ(a.detour, b.detour) << "net " << net;
  EXPECT_EQ(a.layers_used[0], b.layers_used[0]) << "net " << net;
  EXPECT_EQ(a.layers_used[1], b.layers_used[1]) << "net " << net;
  EXPECT_EQ(a.f2f_vias, b.f2f_vias) << "net " << net;
  EXPECT_EQ(a.mls_applied, b.mls_applied) << "net " << net;
  EXPECT_EQ(a.worst_overflow, b.worst_overflow) << "net " << net;
  EXPECT_EQ(a.sink_elmore_ps, b.sink_elmore_ps) << "net " << net;
}

// Flips `count` random nets' MLS flags (a net may flip twice).
void flip_random(util::Rng& rng, std::vector<std::uint8_t>& flags, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) flags[rng.below(flags.size())] ^= 1;
}

// The route pass answers a flag flip with route_all on the live router; no
// grid usage, history or per-net state of the previous routing may leak
// into the new one.
TEST(RerouteReplay, BitExactWithFromScratchRouteAll) {
  tech::Tech3D tech3d;
  const netlist::Design d = placed_16pe(tech3d);
  const route::RouterOptions opt;
  Router live(d, tech3d, opt);
  std::vector<std::uint8_t> flags(d.nl.num_nets(), 0);
  live.route_all(flags);

  util::Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    flip_random(rng, flags, 1 + 7 * static_cast<std::size_t>(trial));
    const RouteSummary again = live.route_all(flags);

    Router fresh(d, tech3d, opt);
    const RouteSummary full = fresh.route_all(flags);

    EXPECT_DOUBLE_EQ(again.total_wl_m, full.total_wl_m) << "trial " << trial;
    EXPECT_EQ(again.mls_nets, full.mls_nets) << "trial " << trial;
    EXPECT_EQ(again.f2f_pairs, full.f2f_pairs) << "trial " << trial;
    EXPECT_EQ(again.census.overflow_gcells, full.census.overflow_gcells) << "trial " << trial;
    ASSERT_EQ(live.routes().size(), fresh.routes().size());
    for (Id n = 0; n < d.nl.num_nets(); ++n)
      expect_route_equal(live.net_route(n), fresh.net_route(n), n);
    EXPECT_EQ(live.routed_revision(), d.nl.revision());
  }
}

TEST(RerouteReplay, EmptyDirtySetIsANoOp) {
  tech::Tech3D tech3d;
  const netlist::Design d = placed_16pe(tech3d);
  Router live(d, tech3d);
  std::vector<std::uint8_t> flags(d.nl.num_nets(), 0);
  const RouteSummary base = live.route_all(flags);
  const std::vector<route::NetRoute> before = live.routes();
  const RouteSummary re = live.reroute_nets(std::vector<Id>{}, flags);
  EXPECT_DOUBLE_EQ(re.total_wl_m, base.total_wl_m);
  EXPECT_EQ(re.census.overflow_gcells, base.census.overflow_gcells);
  for (Id n = 0; n < d.nl.num_nets(); ++n) expect_route_equal(live.net_route(n), before[n], n);
}

TEST(RerouteEco, RoutesNetsAddedAfterTheLastRoute) {
  tech::Tech3D tech3d;
  netlist::Design d = placed_16pe(tech3d);
  Router live(d, tech3d);
  live.route_all({});
  const std::size_t old_nets = d.nl.num_nets();

  // Splice a buffer pair behind an existing driver: one touched old net, one
  // brand-new net that the router has never seen.
  netlist::Netlist& nl = d.nl;
  const std::size_t mark = nl.journal_size();
  Id tapped = netlist::kNullId;
  for (Id n = 0; n < nl.num_nets(); ++n)
    if (nl.net(n).driver != netlist::kNullId) { tapped = n; break; }
  ASSERT_NE(tapped, netlist::kNullId);
  const std::size_t tapped_sinks = nl.net(tapped).sinks.size();
  ASSERT_EQ(live.net_route(tapped).sink_elmore_ps.size(), tapped_sinks);
  const Id b1 = nl.add_cell(tech::CellKind::kBuf, 0, 80.0f, 90.0f);
  const Id b2 = nl.add_cell(tech::CellKind::kBuf, 0, 200.0f, 150.0f);
  nl.add_sink(tapped, nl.input_pin(b1, 0));
  const Id fresh_net = nl.connect(b1, 0, b2, 0);
  ASSERT_EQ(nl.num_nets(), old_nets + 1);

  // Only the explicitly journaled old net goes in the dirty list; the new
  // net must be picked up implicitly.
  std::vector<Id> dirty;
  for (const Id n : nl.journal().subspan(mark))
    if (n < old_nets) dirty.push_back(n);
  live.reroute_nets(dirty);

  ASSERT_EQ(live.routes().size(), nl.num_nets());
  EXPECT_EQ(live.routed_revision(), nl.revision());
  const route::NetRoute& r = live.net_route(fresh_net);
  EXPECT_GT(r.wl_um, 0.0f);
  ASSERT_EQ(r.sink_elmore_ps.size(), 1u);
  EXPECT_GT(r.sink_elmore_ps[0], 0.0f);
  // The tapped net was re-routed: it gained the new sink's Elmore entry.
  const route::NetRoute& t = live.net_route(tapped);
  ASSERT_EQ(t.sink_elmore_ps.size(), tapped_sinks + 1);
  EXPECT_GT(t.sink_elmore_ps.back(), 0.0f);
}

TEST(DftEco, SingleRoutePlusEcoPassesStrictChecks) {
  mls::FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.run_pdn = false;
  cfg.strict_checks = true;  // the checker audits the post-ECO state
  mls::DesignFlow flow(netlist::make_maeri_16pe(), cfg);

  const mls::DesignFlow::DftMetrics m =
      flow.evaluate_with_dft({}, mls::Strategy::kNone, dft::MlsDftStyle::kWireBased);
  EXPECT_GT(m.scan_flops, 0u);
  EXPECT_GT(m.total_faults, 0u);
  EXPECT_GT(m.coverage, 0.0);
  // The ECO left routes parallel to (and stamped at) the final netlist.
  EXPECT_EQ(flow.router().routes().size(), flow.design().nl.num_nets());
  EXPECT_EQ(flow.router().routed_revision(), flow.design().nl.revision());
  EXPECT_TRUE(flow.db().fresh(core::Stage::kRoutes));
  EXPECT_TRUE(flow.db().fresh(core::Stage::kTest));
}

}  // namespace
