#include "pdn/pdn.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace gnnmls::pdn {

std::vector<double> power_density_map(const netlist::Design& design, const tech::Tech3D& tech,
                                      const std::vector<route::NetRoute>& routes, int tier,
                                      int map_nx, int map_ny, const PowerOptions& options) {
  std::vector<double> map(static_cast<std::size_t>(map_nx) * map_ny, 0.0);
  const netlist::Netlist& nl = design.nl;
  const double f_ghz = 1000.0 / design.info.clock_ps;
  for (netlist::Id c = 0; c < nl.num_cells(); ++c) {
    const netlist::CellInst& cell = nl.cell(c);
    if (cell.tier != tier) continue;
    const tech::Library& lib = cell.tier == 0 ? tech.bottom : tech.top;
    const tech::CellType& type = lib.cell(cell.kind);
    double c_sw = type.input_cap_ff * cell.num_in;
    for (int o = 0; o < cell.num_out; ++o) {
      const netlist::Id net = nl.pin(nl.output_pin(c, o)).net;
      if (net != netlist::kNullId) c_sw += routes[net].load_ff;
    }
    double p_mw = (options.activity * c_sw * lib.vdd() * lib.vdd() * f_ghz + type.leakage_uw) * 1e-3;
    if (cell.kind == tech::CellKind::kSramMacro) {
      const double scale = lib.node() == tech::Node::kN16 ? 0.55 : 1.0;
      p_mw += options.activity * options.sram_access_energy_pj * scale * f_ghz;
    }
    const int x = std::clamp(static_cast<int>(cell.x_um / design.info.die_w_um * map_nx), 0,
                             map_nx - 1);
    const int y = std::clamp(static_cast<int>(cell.y_um / design.info.die_h_um * map_ny), 0,
                             map_ny - 1);
    map[static_cast<std::size_t>(y) * map_nx + x] += p_mw;
  }
  return map;
}

TierGrid tier_grid(const netlist::Design& design, const tech::Tech3D& tech,
                   const std::vector<route::NetRoute>& routes, int tier,
                   const PdnOptions& options) {
  TierGrid grid;
  grid.power_map_mw = power_density_map(design, tech, routes, tier, grid.map_nx, grid.map_ny);
  PdnGridSpec& spec = grid.spec;
  spec.die_w_um = design.info.die_w_um;
  spec.die_h_um = design.info.die_h_um;
  spec.strap_width_um = 1.0;
  spec.strap_pitch_um = options.strap_pitch_um;
  spec.vdd = tier == 0 ? tech.vdd_bottom() : tech.vdd_top();
  // Sheet resistance of the tier's top metal.
  const tech::BeolStack& stack = tier == 0 ? tech.beol_bottom : tech.beol_top;
  const tech::MetalLayer& top = stack.layer(stack.top());
  spec.sheet_r_ohm = top.r_ohm_per_um * top.width_um;  // Ohm/um * um = Ohm/sq
  return grid;
}

PdnDesign synthesize_pdn(const netlist::Design& design, const tech::Tech3D& tech,
                         const std::vector<route::NetRoute>& routes, const PdnOptions& options) {
  GNNMLS_SPAN("pdn.synthesize");
  PdnDesign out;
  const double vdd_min = tech.vdd_min();
  // Budget is expressed against the lowest VDD in the stack (Table IV).
  const double budget_mv = options.ir_budget_pct * 0.01 * vdd_min * 1e3;
  for (int tier = 0; tier < 2; ++tier) {
    const TierGrid grid = tier_grid(design, tech, routes, tier, options);
    IrDropResult ir = solve_ir_drop(grid.spec, grid.power_map_mw, grid.map_nx, grid.map_ny);
    double util = options.min_utilization;
    for (; util <= options.max_utilization + 1e-9; util += 0.02)
      if (ir.max_drop_mv / (util * options.strap_pitch_um) <= budget_mv) break;
    util = std::min(util, options.max_utilization);
    // Unit width -> the chosen width: every node drop scales as 1/W.
    const double width = util * options.strap_pitch_um;
    for (double& d : ir.node_drop_mv) d /= width;
    ir.max_drop_mv /= width;
    ir.mean_drop_mv /= width;
    ir.drop_pct_of_vdd /= width;
    out.strap_width_um[tier] = width;
    out.strap_pitch_um[tier] = options.strap_pitch_um;
    out.utilization[tier] = util;
    out.worst_ir_pct = std::max(out.worst_ir_pct, ir.max_drop_mv / (vdd_min * 1e3) * 100.0);
    util::log_debug("pdn tier ", tier, ": U=", util, " drop ", ir.max_drop_mv, " mV");
    out.ir[tier] = std::move(ir);
  }
  return out;
}

}  // namespace gnnmls::pdn
