// End-to-end design flow driver (paper Figure 4).
//
// One DesignFlow owns a benchmark design through the pseudo-3D pipeline:
//   generate -> fanout buffering / repeaters -> level shifters (hetero) ->
//   placement -> [per MLS strategy] targeted routing -> STA -> power -> PDN.
// The three strategies the paper compares are all driven through here:
//   kNone  - sequential-2D stacking, no sharing (baseline);
//   kSota  - wirelength-heuristic sharing (reference [9]);
//   kGnn   - GNN-MLS decisions from a trained engine.
// evaluate() hands a declarative pass pipeline to the flow::PassManager:
// passes whose DesignDB stages are still fresh are skipped outright (a
// re-run on an unmutated design schedules zero passes and reports from the
// stage caches), stale stages are repaired incrementally (flag flips replay
// bit-exactly; netlist ECOs rip up only the dirty nets), and independent
// passes run concurrently under GNNMLS_THREADS. Strategies still see
// identical starting conditions because the suffix replay is bit-exact with
// a from-scratch route under the new flags.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "check/check_pass.hpp"
#include "core/design_db.hpp"
#include "dft/dft_pass.hpp"
#include "dft/scan.hpp"
#include "floorplan/tier.hpp"
#include "flow/pass_manager.hpp"
#include "flow/types.hpp"
#include "mls/decide_pass.hpp"
#include "mls/gnnmls.hpp"
#include "pdn/pdn_passes.hpp"
#include "route/route_pass.hpp"
#include "sta/sta_pass.hpp"

namespace gnnmls::mls {

enum class Strategy { kNone, kSota, kGnn };

std::string to_string(Strategy s);

// Flow configuration and the PPA metrics row moved to src/flow/types.hpp so
// the pass layer can consume them; these aliases keep call sites unchanged.
using FlowConfig = flow::FlowConfig;
using FlowMetrics = flow::FlowMetrics;

class DesignFlow {
 public:
  DesignFlow(netlist::Design design, const FlowConfig& config);

  // Routes with the given per-net flags (empty = no MLS), runs STA + power
  // (+ PDN), and returns the metrics row. Scheduling is revision-aware: only
  // the passes whose stages went stale since the last evaluate actually run.
  FlowMetrics evaluate(const std::vector<std::uint8_t>& flags, Strategy strategy);

  // Convenience wrappers.
  FlowMetrics evaluate_no_mls() { return evaluate({}, Strategy::kNone); }
  FlowMetrics evaluate_sota() { return evaluate(sota_select(design(), config_.sota), Strategy::kSota); }
  FlowMetrics evaluate_gnn(GnnMlsEngine& engine,
                           const CorpusOptions& corpus = CorpusOptions{4000, true, 60.0, false, {}});

  // Baseline state access (valid after any evaluate): used for corpus
  // building and labeling against the no-MLS routing. These forward into
  // the DesignDB, which owns every stage artifact; sta() rebuilds the graph
  // transparently if the netlist moved past it.
  const netlist::Design& design() const { return db_.design(); }
  const tech::Tech3D& tech() const { return tech_; }
  route::Router& router() { return db_.router(config_.router); }
  sta::TimingGraph& sta() { return db_.timing(); }
  const FlowConfig& config() const { return config_; }
  const pdn::PdnDesign* pdn_design() const { return db_.pdn(); }
  core::DesignDB& db() { return db_; }
  const core::DesignDB& db() const { return db_; }

  // What the scheduler did on the most recent evaluate / run_passes call:
  // which passes executed (with per-pass seconds and dispatch wave) and
  // which were skipped as fresh.
  const flow::RunReport& last_run_report() const { return pm_.last_report(); }

  // Decision vector from the most recent evaluate_gnn (DecidePass output);
  // empty before the first GNN evaluate.
  const std::vector<std::uint8_t>& decide_flags() const { return decide_pass_.flags(); }

  // Runs exactly the named registry passes (canonical order, regardless of
  // the order given) against the current DB state — the engine behind
  // gnnmls_lint --only. Throws std::invalid_argument on an unknown name.
  FlowMetrics run_passes(const std::vector<std::string>& names,
                         const std::vector<std::uint8_t>& flags,
                         Strategy strategy = Strategy::kNone);

  // Builds a (optionally labeled) corpus against the CURRENT routing state;
  // call after evaluate_no_mls() to label against the baseline.
  Corpus corpus(const CorpusOptions& options, int design_tag = 0) const;

  // Runs every registered integrity pass (src/check/) over the current flow
  // state: netlist lint always; routing/STA/MLS/PDN/DFT rules once the
  // corresponding stage has produced state. The check pass runs this itself
  // when config.strict_checks is set and throws if the report has errors.
  check::Report run_checks() const { return check::run_flow_checks(db_, config_); }

  // ---- testable-design evaluation (Tables III and VI) --------------------
  // Routes once with the given flags, inserts full scan plus the chosen MLS
  // DFT style, incrementally re-routes only the nets the insertion touched
  // (RerouteMode::kEco on the DB's dirty set), re-times, and fault-simulates
  // the pre-bond test. MUTATES the design permanently; run it as the flow's
  // final step. A second call on an unmutated design skips the insertion
  // (the test stage is fresh) and just re-simulates.
  struct DftMetrics {
    FlowMetrics flow;
    std::size_t total_faults = 0;
    std::size_t detected_faults = 0;
    double coverage = 0.0;
    std::size_t scan_flops = 0;
    std::size_t dft_cells = 0;
  };
  DftMetrics evaluate_with_dft(const std::vector<std::uint8_t>& flags, Strategy strategy,
                               dft::MlsDftStyle style);

 private:
  // Netlist prep shared by the constructor: fanout buffering, level shifters
  // (hetero), repeaters, placement. Fills the report fields it is passed.
  static netlist::Design prepare(netlist::Design design, const FlowConfig& config,
                                 const tech::Tech3D& tech,
                                 netlist::BufferingReport& buffering,
                                 std::size_t& level_shifters);
  // The standard evaluate pipeline, optionally with the DFT pass between
  // routing and analysis. PDN and check membership follow the config.
  std::vector<flow::Pass*> pipeline(bool with_dft);
  // Assembles the PPA row from the DB's stage caches (route summary, STA
  // result, power report, PDN design) — valid even when every pass skipped.
  void fill_metrics(FlowMetrics& m) const;

  FlowConfig config_;
  tech::Tech3D tech_;
  netlist::BufferingReport buffering_report_;
  std::size_t level_shifters_ = 0;
  // Owns the design and every stage artifact (router, timing graph, power,
  // PDN, test model, MLS flags), with per-stage revisions; declared after
  // the fields prepare() fills so the member-init order works out.
  core::DesignDB db_;
  // The pass instances are plain members: they are stateless apart from
  // DecidePass (engine wiring + cached decision vector), and the manager's
  // skip ledger lives in pm_ so it persists across evaluates.
  route::RoutePass route_pass_;
  dft::DftPass dft_pass_;
  sta::StaPass sta_pass_;
  pdn::PowerPass power_pass_;
  pdn::PdnPass pdn_pass_;
  check::CheckPass check_pass_;
  DecidePass decide_pass_;
  flow::PassManager pm_;
};

// Trains one engine the way the paper does (Section II-B): pooled unlabeled
// paths from the four training configurations for DGI, labeled subsets for
// fine-tuning. Returns the engine plus its training report.
struct TrainedEngine {
  std::unique_ptr<GnnMlsEngine> engine;
  TrainReport report;
  std::size_t corpus_paths = 0;
};

TrainedEngine train_engine_on(std::vector<DesignFlow*> flows, const GnnMlsConfig& config = {},
                              int paths_per_design = 500);

}  // namespace gnnmls::mls
