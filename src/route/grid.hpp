// 3D routing-resource grid.
//
// The die area of each tier is tessellated into gcells; every (tier, layer,
// gcell) tracks how many routing tracks exist (pitch-derived) and how many a
// committed route consumes. A separate per-gcell resource counts F2F bond
// pads (paper: 0.5 um pads on a 1.0 um pitch), which caps how many nets can
// cross between tiers — or share the other tier's metals — in any region.
//
// The PDN reserves a fraction of the top one or two layers before signal
// routing begins (paper Table IV: M-T utilization 14% / 30%), which is the
// resource coupling that makes indiscriminate MLS self-defeating.
#pragma once

#include <cstdint>
#include <vector>

#include "tech/tech.hpp"

namespace gnnmls::route {

struct GridConfig {
  double gcell_um = 8.0;
};

class RoutingGrid {
 public:
  RoutingGrid(double die_w_um, double die_h_um, const tech::Tech3D& tech,
              const GridConfig& config = {});

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  double gcell_um() const { return gcell_um_; }
  int num_layers(int tier) const { return layers_[tier]; }

  // Gcell coordinates of a point (clamped to the die).
  int gx(double x_um) const;
  int gy(double y_um) const;

  // Track capacity/usage of one gcell on one layer.
  float capacity(int tier, int layer, int x, int y) const { return cap_[idx(tier, layer, x, y)]; }
  float usage(int tier, int layer, int x, int y) const { return use_[idx(tier, layer, x, y)]; }
  void add_usage(int tier, int layer, int x, int y, float amount) {
    use_[idx(tier, layer, x, y)] += amount;
  }
  // usage / capacity (capacity floor keeps this finite for PDN-blocked cells).
  double congestion(int tier, int layer, int x, int y) const;

  // F2F pad resource.
  float f2f_capacity() const { return f2f_cap_; }
  float f2f_usage(int x, int y) const { return f2f_use_[idx2(x, y)]; }
  void add_f2f(int x, int y, float amount) { f2f_use_[idx2(x, y)] += amount; }
  double f2f_congestion(int x, int y) const;

  // Removes `fraction` of every gcell's tracks on `layer` of `tier`
  // (PDN straps). Call before routing.
  void reserve_layer_fraction(int tier, int layer, double fraction);

  // Flat-index access, used by the router's per-net commit footprints so a
  // rip-up can subtract exactly the usage a commit added. Usage counts are
  // whole-number sums of 1.0f, so add/subtract round-trips are exact.
  std::size_t track_index(int tier, int layer, int x, int y) const {
    return idx(tier, layer, x, y);
  }
  std::size_t f2f_index(int x, int y) const { return idx2(x, y); }
  void add_usage_at(std::size_t i, float amount) { use_[i] += amount; }
  void add_f2f_at(std::size_t i, float amount) { f2f_use_[i] += amount; }
  // Flat cell counts, sizing the negotiation history surface and the
  // per-plane overflow masks (route/negotiate.cpp).
  std::size_t num_track_cells() const { return use_.size(); }
  std::size_t num_f2f_cells() const { return f2f_use_.size(); }

  // Mutable resource state (track + F2F usage) as one value, so the router's
  // checkpoint can capture/restore a mid-route grid exactly. Capacities are
  // construction-time constants and are not part of the state.
  struct UsageState {
    std::vector<float> use;
    std::vector<float> f2f_use;
  };
  UsageState usage_state() const { return UsageState{use_, f2f_use_}; }
  void restore_usage(const UsageState& state) {
    use_ = state.use;
    f2f_use_ = state.f2f_use;
  }

  // Aggregate congestion census.
  struct Census {
    std::size_t overflow_gcells = 0;   // gcell-layers with usage > capacity
    double max_congestion = 0.0;
    double mean_congestion = 0.0;      // over used gcell-layers
    std::size_t f2f_overflow_gcells = 0;
  };
  Census census() const;

  void clear_usage();

 private:
  std::size_t idx(int tier, int layer, int x, int y) const {
    return (static_cast<std::size_t>(tier) * static_cast<std::size_t>(max_layers_) +
            static_cast<std::size_t>(layer)) *
               static_cast<std::size_t>(nx_ * ny_) +
           static_cast<std::size_t>(y * nx_ + x);
  }
  std::size_t idx2(int x, int y) const { return static_cast<std::size_t>(y * nx_ + x); }

  int nx_ = 0, ny_ = 0;
  double gcell_um_ = 8.0;
  int layers_[2] = {0, 0};
  int max_layers_ = 0;
  float f2f_cap_ = 1.0;
  std::vector<float> cap_;
  std::vector<float> use_;
  std::vector<float> f2f_use_;
};

}  // namespace gnnmls::route
