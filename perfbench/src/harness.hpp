// Shared pieces of the repository benchmark: the layer span recorder, the
// pass-by-pass replay of DesignFlow::evaluate, result digests, and the
// Workload interface the driver (main.cpp) runs.
//
// Two modes per run (see perfbench/README.md):
//   untraced  every call goes through the library's high-level entry points
//             (DesignFlow::evaluate*, mls::train_engine_on) and only whole
//             set-ups and ops are timed;
//   traced    a second copy of the workload replays each op through the
//             public per-layer calls (one run_passes per pass, engine
//             decide/pretrain/fine_tune, corpus, constructor, run_checks),
//             timing every call from here. The replay must reproduce the
//             untraced op's digest bit for bit.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fingerprint.hpp"
#include "mls/flow.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Layers a traced call is charged to. The metric names are the per-layer
// metric names of BENCHMARK.json (set-up time goes to "setup." + name).
// kPower, kSelect and kEco are timed so that unattributed_ms stays small but
// not reported: each is under 1% of every op.
enum class Layer {
  kGenerate,   // netlist generators
  kPrepare,    // DesignFlow constructor: buffering, level shifters, placement
  kRoute,      // route pass
  kSta,        // sta pass
  kPower,      // power pass
  kPdn,        // pdn pass (PDN synthesis + IR solve)
  kTx,         // PassManager transaction snapshots (FlowMetrics::tx_s)
  kSelect,     // sota_select heuristic
  kDecide,     // GnnMlsEngine::decide
  kCorpus,     // DesignFlow::corpus
  kPretrain,   // GnnMlsEngine::pretrain (DGI)
  kFineTune,   // GnnMlsEngine::fine_tune
  kCheck,      // DesignFlow::run_checks
  kEco,        // netlist edit of an ECO op
  kCount
};
// Name of the layer's span in the driver's human-readable split.
const char* span_name(Layer layer);
// Name of the layer's per-layer time metric, or null for an unreported layer.
const char* metric_name(Layer layer);
// Whether any workload's set-up calls into the layer.
bool used_in_setup(Layer layer);

// Per-layer wall time of traced calls, plus the pass-manager counts that
// only the per-call run reports expose.
struct Spans {
  double ms[static_cast<int>(Layer::kCount)] = {};
  std::uint64_t passes_run = 0;
  std::uint64_t passes_skipped = 0;
  std::uint64_t pretrain_path_epochs = 0;  // graphs x DGI epochs pretrained

  double& operator[](Layer layer) { return ms[static_cast<int>(layer)]; }
  double total_ms() const;

  // Calls fn(), charging its wall time to `layer`.
  template <class F>
  decltype(auto) time(Layer layer, F&& fn) {
    struct Charge {
      double& slot;
      Clock::time_point start;
      ~Charge() { slot += ms_since(start); }
    } charge{(*this)[layer], Clock::now()};
    return fn();
  }
};

// DesignFlow::evaluate(flags, strategy), untraced when spans == nullptr and
// otherwise replayed as one run_passes call per pass (route, sta, power,
// pdn). The PPA fields of both rows come from the same DesignDB caches.
gnnmls::mls::FlowMetrics evaluate(gnnmls::mls::DesignFlow& flow,
                                  const std::vector<std::uint8_t>& flags,
                                  gnnmls::mls::Strategy strategy, Spans* spans);

// DesignFlow::evaluate_gnn(engine), replayed as the no-MLS evaluate (all
// passes skip on a fresh design), GnnMlsEngine::decide and the flagged
// evaluate when traced.
gnnmls::mls::FlowMetrics evaluate_gnn(gnnmls::mls::DesignFlow& flow,
                                      gnnmls::mls::GnnMlsEngine& engine, Spans* spans);

// mls::train_engine_on(flows, config, paths_per_design); when traced, the
// same corpus / pretrain / fine-tune sequence called layer by layer.
gnnmls::mls::TrainedEngine train(const std::vector<gnnmls::mls::DesignFlow*>& flows,
                                 const gnnmls::mls::GnnMlsConfig& config,
                                 int paths_per_design, Spans* spans);

// Order-sensitive digest of everything an op produced. Doubles fold in by
// bit pattern, so equal digests mean bit-identical results.
class Digest {
 public:
  void add(double v) { h_.mix_double(v); }
  void add(std::uint64_t v) { h_.mix(v); }
  void add_row(const gnnmls::mls::FlowMetrics& m);  // PPA fields, not runtimes
  void add_report(const gnnmls::mls::TrainReport& r);
  std::uint64_t value() const { return h_.value(); }

 private:
  gnnmls::core::Fnv1a h_;
};

// A row is ok when it needed no fallback and no retry.
inline bool clean(const gnnmls::mls::FlowMetrics& m) { return !m.degraded && m.retries == 0; }

struct OpResult {
  double ms = 0.0;  // wall time of the op's work (digests excluded)
  bool ok = true;   // every row clean
  std::uint64_t digest = 0;
};

// The quality figures of a run. Every value is deterministic for a seed.
struct Quality {
  // End-to-end: never 0 on any workload.
  double eff_freq_mhz = 0.0;
  double wl_m = 0.0;
  double power_mw = 0.0;
  double overflow_gcells = 0.0;
  double ir_drop_pct = 0.0;
  // Per-layer: 0 is a legitimate value (timing met, no model, clean checks).
  double wns_ps = 0.0;
  double tns_ns = 0.0;
  double violating = 0.0;
  double val_f1 = 0.0;  // 0 where the workload trains no model
  double check_errors = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the state ops run against. Traced when spans != nullptr.
  virtual void setup(Spans* spans) = 0;
  // Digest of the set-up state, compared between the untraced and traced copy.
  virtual std::uint64_t setup_digest() = 0;
  // One untimed op-shaped block run before timing starts (default: none).
  virtual void warm_up() {}
  // Op `index` (0-based; ops of one run are numbered consecutively).
  virtual OpResult op(std::size_t index, Spans* spans) = 0;
  // A run completes at least this many ops, so its quality figures cover a
  // fixed set of work whatever the time budget.
  virtual std::size_t min_ops() const = 0;
  // Ops run in whole cycles of this many, so every run weighs the same
  // inputs equally.
  virtual std::size_t op_cycle() const { return 1; }
  // Quality over the first min_ops() ops. Also checks op results that must
  // repeat within the run; returns false on a mismatch.
  virtual bool quality(Quality& out) = 0;
};

// Null for an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
