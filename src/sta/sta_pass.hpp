// StaPass: static timing as a schedulable flow pass.
//
// Reads {netlist, routes}, writes {timing}. Every run is a full forward/
// backward propagation (TimingGraph::run); the graph's pin topology is
// rebuilt first when the netlist moved since it was built. A flag flip or
// a netlist ECO re-times the whole design. The result lands in the DB's
// StaResult cache so a later all-skipped evaluate can still report WNS/TNS.
#pragma once

#include <memory>

#include "flow/pass.hpp"

namespace gnnmls::sta {

class StaPass : public flow::Pass {
 public:
  const char* name() const override { return "sta"; }
  std::vector<core::Stage> reads() const override {
    return {core::Stage::kNetlist, core::Stage::kRoutes};
  }
  std::vector<core::Stage> writes() const override { return {core::Stage::kTiming}; }
  void run(flow::PassContext& ctx) override;
};

std::unique_ptr<flow::Pass> make_sta_pass();

}  // namespace gnnmls::sta
