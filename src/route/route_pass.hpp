// RoutePass: the routing stage as a schedulable flow pass.
//
// Reads {netlist, placement}, writes {routes, placement}. run() has two
// branches: a netlist that moved since the last route gets the minimal-
// rip-up ECO repair (Router::reroute_nets) over the dirty set, and
// everything else — a first route, an MLS flag flip, a touched net, an
// invalidated stage — gets a full route_all under the current flags.
// Callers never pick a branch. The kPlacement write is absorb_journal()'s
// placement re-commit when an external ECO left journal entries pending
// (mutators place their own cells); the contract audit flagged the old
// {routes}-only declaration.
#pragma once

#include <memory>

#include "flow/pass.hpp"

namespace gnnmls::route {

class RoutePass : public flow::Pass {
 public:
  const char* name() const override { return "route"; }
  std::vector<core::Stage> reads() const override {
    return {core::Stage::kNetlist, core::Stage::kPlacement};
  }
  std::vector<core::Stage> writes() const override {
    return {core::Stage::kRoutes, core::Stage::kPlacement};
  }
  void run(flow::PassContext& ctx) override;
};

std::unique_ptr<flow::Pass> make_route_pass();

}  // namespace gnnmls::route
