// Tests for power estimation, PDN synthesis, and the IR-drop solver.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "netlist/buffering.hpp"
#include "netlist/generators.hpp"
#include "pdn/irdrop.hpp"
#include "pdn/pdn.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"

namespace {

using namespace gnnmls;
using namespace gnnmls::pdn;

struct RoutedFixture : ::testing::Test {
  void SetUp() override {
    d = netlist::make_maeri_16pe();
    tech3d = tech::make_hetero_tech(d.info.beol_layers);
    netlist::insert_buffer_trees(d.nl);
    place::place(d, tech3d);
    router = std::make_unique<route::Router>(d, tech3d);
    router->route_all({});
  }
  netlist::Design d;
  tech::Tech3D tech3d;
  std::unique_ptr<route::Router> router;
};

TEST_F(RoutedFixture, PowerBreakdownIsConsistent) {
  const PowerReport p = estimate_power(d, tech3d, router->routes());
  EXPECT_GT(p.dynamic_mw, 0.0);
  EXPECT_GT(p.wire_mw, 0.0);
  EXPECT_GT(p.sram_mw, 0.0);
  EXPECT_GT(p.leakage_mw, 0.0);
  EXPECT_NEAR(p.total_mw, p.dynamic_mw + p.wire_mw + p.sram_mw + p.leakage_mw + p.ls_mw, 1e-9);
  EXPECT_NEAR(p.total_mw, p.per_tier_mw[0] + p.per_tier_mw[1], p.total_mw * 0.3);
}

TEST_F(RoutedFixture, PowerScalesWithActivity) {
  PowerOptions low, high;
  low.activity = 0.05;
  high.activity = 0.30;
  EXPECT_GT(estimate_power(d, tech3d, router->routes(), high).total_mw,
            estimate_power(d, tech3d, router->routes(), low).total_mw * 2.0);
}

TEST_F(RoutedFixture, PowerDensityMapCoversLoad) {
  const auto map = power_density_map(d, tech3d, router->routes(), 1, 16, 16);
  double total = 0.0;
  for (double v : map) total += v;
  EXPECT_GT(total, 0.0);  // the memory die burns power
}

TEST(IrDrop, ZeroLoadZeroDrop) {
  PdnGridSpec spec;
  const auto r = solve_ir_drop(spec, {}, 0, 0);
  EXPECT_NEAR(r.max_drop_mv, 0.0, 1e-9);
}

TEST(IrDrop, CenterLoadDropsMostAtCenter) {
  PdnGridSpec spec;
  spec.die_w_um = 500.0;
  spec.die_h_um = 500.0;
  std::vector<double> pmap(9, 0.0);
  pmap[4] = 200.0;  // 200 mW at the center cell of a 3x3 map
  const auto r = solve_ir_drop(spec, pmap, 3, 3);
  EXPECT_GT(r.max_drop_mv, 0.0);
  // The hottest node should be near the grid center.
  std::size_t arg = 0;
  for (std::size_t i = 0; i < r.node_drop_mv.size(); ++i)
    if (r.node_drop_mv[i] > r.node_drop_mv[arg]) arg = i;
  const int cx = static_cast<int>(arg) % r.grid_nx;
  const int cy = static_cast<int>(arg) / r.grid_nx;
  EXPECT_NEAR(cx, r.grid_nx / 2, r.grid_nx / 4);
  EXPECT_NEAR(cy, r.grid_ny / 2, r.grid_ny / 4);
}

TEST(IrDrop, WiderStrapsReduceDrop) {
  PdnGridSpec narrow, wide;
  narrow.strap_width_um = 0.5;
  wide.strap_width_um = 3.0;
  std::vector<double> pmap(16, 20.0);
  const auto rn = solve_ir_drop(narrow, pmap, 4, 4);
  const auto rw = solve_ir_drop(wide, pmap, 4, 4);
  EXPECT_GT(rn.max_drop_mv, rw.max_drop_mv);
}

TEST(IrDrop, MorePowerMoreDrop) {
  PdnGridSpec spec;
  std::vector<double> low(16, 5.0), high(16, 50.0);
  EXPECT_GT(solve_ir_drop(spec, high, 4, 4).max_drop_mv,
            solve_ir_drop(spec, low, 4, 4).max_drop_mv * 2.0);
}

TEST(IrDrop, RenderedMapHasContent) {
  PdnGridSpec spec;
  std::vector<double> pmap(16, 30.0);
  const auto r = solve_ir_drop(spec, pmap, 4, 4);
  const std::string art = render_drop_map(r, 24);
  EXPECT_GT(art.size(), 24u);
  EXPECT_NE(art.find('\n'), std::string::npos);
}

// Reference solution: SOR over the same mesh in drop form (boundary drop 0),
// run until no sweep moves a node by 1e-14 V. The power map must have the
// grid's own dimensions, so that node (x, y) takes exactly map cell (x, y).
std::vector<double> converged_sor_drop_v(const PdnGridSpec& spec, const std::vector<double>& pmap,
                                         int nx, int ny) {
  const double g_x = spec.strap_width_um / (spec.sheet_r_ohm * (spec.die_w_um / nx));
  const double g_y = spec.strap_width_um / (spec.sheet_r_ohm * (spec.die_h_um / ny));
  std::vector<double> d(pmap.size(), 0.0);
  auto at = [&](int x, int y) -> double& { return d[static_cast<std::size_t>(y) * nx + x]; };
  for (int sweep = 0; sweep < 50000; ++sweep) {
    double max_delta = 0.0;
    for (int y = 1; y + 1 < ny; ++y) {
      for (int x = 1; x + 1 < nx; ++x) {
        const double inj = pmap[static_cast<std::size_t>(y) * nx + x] * 1e-3 / spec.vdd;
        const double target =
            (g_x * (at(x - 1, y) + at(x + 1, y)) + g_y * (at(x, y - 1) + at(x, y + 1)) + inj) /
            (2.0 * g_x + 2.0 * g_y);
        const double next = at(x, y) + 1.9 * (target - at(x, y));
        max_delta = std::max(max_delta, std::abs(next - at(x, y)));
        at(x, y) = next;
      }
    }
    if (max_delta < 1e-14) return d;
  }
  ADD_FAILURE() << "reference SOR did not converge";
  return d;
}

std::vector<double> seeded_power_map(int nx, int ny, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> mw(0.0, 0.05);
  std::vector<double> pmap(static_cast<std::size_t>(nx) * ny);
  for (double& p : pmap) p = mw(rng);
  return pmap;
}

void expect_matches_converged_sor(PdnGridSpec spec, int nx, int ny) {
  spec.strap_width_um = 0.56;  // the paper designs' 8% of a 7 um pitch
  const std::vector<double> pmap = seeded_power_map(nx, ny, 7);
  const IrDropResult r = solve_ir_drop(spec, pmap, nx, ny);
  ASSERT_EQ(r.grid_nx, nx);
  ASSERT_EQ(r.grid_ny, ny);
  const std::vector<double> ref = converged_sor_drop_v(spec, pmap, nx, ny);
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    worst = std::max(worst, std::abs(r.node_drop_mv[i] * 1e-3 - ref[i]));
  EXPECT_LT(worst, 1e-9) << "worst node error (V)";
  EXPECT_GT(r.max_drop_mv, 1.0);  // a load that actually drops the grid
}

TEST(IrDrop, DirectSolveMatchesConvergedSorSquare) {
  PdnGridSpec spec;  // 600 x 600 um at a 7 um pitch: an 85 x 85 grid, g_x == g_y
  expect_matches_converged_sor(spec, 85, 85);
}

TEST(IrDrop, DirectSolveMatchesConvergedSorNonSquare) {
  PdnGridSpec spec;
  spec.die_w_um = 600.0;
  spec.die_h_um = 300.0;
  spec.strap_pitch_um = 5.0;  // 96 (capped) x 60 nodes: 6.25 um vs 5 um segments
  expect_matches_converged_sor(spec, 96, 60);
}

TEST(IrDrop, DropTimesWidthIsConstant) {
  PdnGridSpec spec;
  const std::vector<double> pmap = seeded_power_map(85, 85, 3);
  spec.strap_width_um = 1.0;
  const IrDropResult unit = solve_ir_drop(spec, pmap, 85, 85);
  for (const double w : {0.3, 0.56, 2.0, 3.15}) {
    spec.strap_width_um = w;
    const IrDropResult r = solve_ir_drop(spec, pmap, 85, 85);
    EXPECT_NEAR(r.max_drop_mv * w, unit.max_drop_mv, unit.max_drop_mv * 1e-12) << "width " << w;
    EXPECT_NEAR(r.mean_drop_mv * w, unit.mean_drop_mv, unit.mean_drop_mv * 1e-12) << "width " << w;
  }
}

TEST(IrDrop, DegenerateGridsGiveZeroOrFiniteDrops) {
  // {die_w, die_h} at a 7 um pitch: 2 or 3 nodes along one or both axes.
  const std::vector<std::pair<double, double>> dies = {
      {14.0, 14.0}, {21.0, 14.0}, {14.0, 600.0}, {21.0, 21.0}, {600.0, 21.0}, {21.0, 600.0}};
  for (const auto& [w, h] : dies) {
    PdnGridSpec spec;
    spec.die_w_um = w;
    spec.die_h_um = h;
    const std::vector<double> pmap(16, 10.0);
    const IrDropResult r = solve_ir_drop(spec, pmap, 4, 4);
    ASSERT_EQ(r.node_drop_mv.size(), static_cast<std::size_t>(r.grid_nx) * r.grid_ny);
    for (const double d : r.node_drop_mv) {
      EXPECT_TRUE(std::isfinite(d)) << w << " x " << h;
      EXPECT_GE(d, 0.0) << w << " x " << h;
    }
    if (r.grid_nx == 2 || r.grid_ny == 2) EXPECT_EQ(r.max_drop_mv, 0.0) << w << " x " << h;
    else EXPECT_GT(r.max_drop_mv, 0.0) << w << " x " << h;
  }
  // One interior node: its drop is I / (2 g_x + 2 g_y).
  PdnGridSpec spec;
  spec.die_w_um = 21.0;
  spec.die_h_um = 21.0;
  std::vector<double> pmap(9, 0.0);
  pmap[4] = 10.0;  // 10 mW on the center node of the 3 x 3 grid
  const IrDropResult r = solve_ir_drop(spec, pmap, 3, 3);
  const double g = spec.strap_width_um / (spec.sheet_r_ohm * 7.0);
  EXPECT_NEAR(r.max_drop_mv, 10e-3 / spec.vdd / (4.0 * g) * 1e3, 1e-12);
}

TEST_F(RoutedFixture, PdnSynthesisMeetsBudgetOrSaturates) {
  PdnOptions opt;
  opt.ir_budget_pct = 10.0;
  const PdnDesign pdn = synthesize_pdn(d, tech3d, router->routes(), opt);
  for (int tier = 0; tier < 2; ++tier) {
    EXPECT_GE(pdn.utilization[tier], opt.min_utilization - 1e-9);
    EXPECT_LE(pdn.utilization[tier], opt.max_utilization + 1e-9);
    EXPECT_GT(pdn.strap_width_um[tier], 0.0);
  }
  // Budget met (or the synthesis hit its utilization ceiling).
  const bool met = pdn.worst_ir_pct <= opt.ir_budget_pct + 1e-6;
  const bool saturated = pdn.utilization[0] >= opt.max_utilization - 1e-6 ||
                         pdn.utilization[1] >= opt.max_utilization - 1e-6;
  EXPECT_TRUE(met || saturated);
}

TEST_F(RoutedFixture, TighterBudgetNeedsMoreMetal) {
  PdnOptions loose, tight;
  loose.ir_budget_pct = 12.0;
  tight.ir_budget_pct = 1.0;
  const PdnDesign a = synthesize_pdn(d, tech3d, router->routes(), loose);
  const PdnDesign b = synthesize_pdn(d, tech3d, router->routes(), tight);
  EXPECT_GE(b.utilization[1], a.utilization[1]);
}

// The one-solve sizing picks the same utilization per tier as re-solving at
// every 0.02 step, from the unconstrained minimum up to saturation.
TEST_F(RoutedFixture, ChosenUtilizationMatchesPerStepResolve) {
  for (const double budget_pct : {10.0, 0.5, 0.3, 0.2, 0.1, 0.05}) {
    PdnOptions opt;
    opt.ir_budget_pct = budget_pct;
    const PdnDesign pdn = synthesize_pdn(d, tech3d, router->routes(), opt);
    const double budget_mv = budget_pct * 0.01 * tech3d.vdd_min() * 1e3;
    for (int tier = 0; tier < 2; ++tier) {
      TierGrid grid = tier_grid(d, tech3d, router->routes(), tier, opt);
      double util = opt.min_utilization;
      for (; util <= opt.max_utilization + 1e-9; util += 0.02) {
        grid.spec.strap_width_um = util * opt.strap_pitch_um;
        if (solve_ir_drop(grid.spec, grid.power_map_mw, grid.map_nx, grid.map_ny).max_drop_mv <=
            budget_mv)
          break;
      }
      EXPECT_EQ(pdn.utilization[tier], std::min(util, opt.max_utilization))
          << "budget " << budget_pct << "% tier " << tier;
    }
  }
}

// When no step meets the budget, the stored width is max_utilization's and
// the reported drop is the drop at that width, not at the last step tried.
TEST_F(RoutedFixture, SaturatedPdnReportsDropAtStoredWidth) {
  PdnOptions opt;
  opt.ir_budget_pct = 0.01;
  const PdnDesign pdn = synthesize_pdn(d, tech3d, router->routes(), opt);
  double worst_mv = 0.0;
  for (int tier = 0; tier < 2; ++tier) {
    EXPECT_EQ(pdn.utilization[tier], opt.max_utilization) << "tier " << tier;
    EXPECT_EQ(pdn.strap_width_um[tier], opt.max_utilization * opt.strap_pitch_um);
    const TierGrid grid = tier_grid(d, tech3d, router->routes(), tier, opt);
    const double unit_mv =
        solve_ir_drop(grid.spec, grid.power_map_mw, grid.map_nx, grid.map_ny).max_drop_mv;
    EXPECT_NEAR(pdn.ir[tier].max_drop_mv * pdn.strap_width_um[tier], unit_mv, unit_mv * 1e-12)
        << "tier " << tier;
    worst_mv = std::max(worst_mv, pdn.ir[tier].max_drop_mv);
  }
  EXPECT_DOUBLE_EQ(pdn.worst_ir_pct, worst_mv / (tech3d.vdd_min() * 1e3) * 100.0);
}

}  // namespace
