#include "sta/sta_pass.hpp"

#include "flow/registry.hpp"
#include "ft/fault_plan.hpp"
#include "obs/trace.hpp"

namespace gnnmls::sta {

void StaPass::run(flow::PassContext& ctx) {
  obs::Span span("flow.sta");
  core::DesignDB& db = ctx.db;
  GNNMLS_FAULT_POINT("sta.run");
  // timing() rebuilds the graph when the netlist revision moved since the
  // last build.
  TimingGraph& g = db.timing();
  const StaResult sr = g.run(db.design().info.clock_ps, ctx.config.clock_uncertainty_ps);
  db.set_sta_result(sr);
  db.commit(core::Stage::kTiming);
  ctx.metrics.sta_s += span.seconds();
}

std::unique_ptr<flow::Pass> make_sta_pass() { return std::make_unique<StaPass>(); }

namespace {
const flow::PassRegistrar reg(30, "sta", &make_sta_pass);
}  // namespace

}  // namespace gnnmls::sta
