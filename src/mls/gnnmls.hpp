// The GNN-MLS decision engine (the paper's primary contribution).
//
// Pipeline (Figure 5 / Algorithm 1):
//   1. pretrain():  DGI self-supervised pretraining of the graph transformer
//                   on unlabeled timing-path graphs pooled from several
//                   design configurations;
//   2. fine_tune(): supervised training of the 2-layer MLP head on the
//                   STA-labeled subset;
//   3. decide():    for a placed-and-routed design, extract critical paths,
//                   run inference, and emit per-net binary MLS decisions
//                   delta(n) — a net is flagged when its predicted
//                   probability of benefiting exceeds the threshold on any
//                   path it appears in.
#pragma once

#include <memory>

#include "ml/dgi.hpp"
#include "ml/engine.hpp"
#include "ml/mlp.hpp"
#include "mls/pathset.hpp"

namespace gnnmls::mls {

// Which inference path decide() runs: the double-precision per-graph stack
// (reference) or the batched float32 SIMD engine (default; ml/engine.hpp).
enum class MlEnginePath { kScalar, kBatched };

const char* to_string(MlEnginePath path);

struct GnnMlsConfig {
  ml::TransformerConfig transformer;  // defaults: 3 layers, 3 heads, dim 48
  ml::DgiConfig dgi{10, 1e-3};
  ml::FineTuneConfig fine_tune;
  double decision_threshold = 0.15;
  // Verify each flagged net with the router's O(1) what-if trial and drop
  // nets whose measured gain is below the labeler noise floor. This guards
  // the targeted routing against model false positives (forcing MLS onto a
  // losing net costs real slack, Table I).
  bool verify_with_trial = true;
  // Fraction of the shared (other-tier top-pair) track capacity MLS nets may
  // claim. Indiscriminate sharing collapses into overflow detours — this is
  // the flow-level budget the paper's targeted routing respects.
  double shared_capacity_fraction = 0.5;
  int mlp_hidden = 24;
  std::uint64_t seed = 42;
  MlEnginePath ml_engine = MlEnginePath::kBatched;
  ml::EngineOptions engine;  // batching / embedding-cache knobs
};

struct TrainReport {
  std::vector<double> dgi_loss;        // per epoch
  std::vector<double> fine_tune_loss;  // per epoch
  util::BinaryMetrics train_metrics;
  util::BinaryMetrics val_metrics;
  // Wall time of fine_tune() alone; DGI pretraining is not included.
  double train_seconds = 0.0;
};

class GnnMlsEngine {
 public:
  explicit GnnMlsEngine(const GnnMlsConfig& config = {});

  // Fits the feature scaler and runs DGI pretraining on the pooled
  // unlabeled corpus (graphs are normalized internally; inputs stay raw).
  std::vector<double> pretrain(std::span<const ml::PathGraph> unlabeled);

  // Supervised fine-tuning on labeled graphs; holds out `val_fraction` for
  // the returned validation metrics.
  TrainReport fine_tune(std::span<const ml::PathGraph> labeled, double val_fraction = 0.2);

  // Per-node probabilities for one raw (unnormalized) path graph.
  std::vector<double> predict(const ml::PathGraph& raw_graph);

  // Per-net MLS decisions for a routed design: extracts paths, runs
  // inference, aggregates per net (max probability over appearances).
  std::vector<std::uint8_t> decide(const netlist::Design& design, const tech::Tech3D& tech,
                                   const route::Router& router,
                                   const sta::TimingGraph& sta_graph,
                                   const CorpusOptions& options = {});

  const GnnMlsConfig& config() const { return config_; }
  bool pretrained() const { return pretrained_; }

  // The batched float32 engine, created on first use and re-synced (weight
  // re-snapshot + cache drop) after any pretrain/fine_tune.
  ml::InferenceEngine& inference();
  // Engine stats when the engine exists (nullptr before first batched use).
  const ml::EngineStats* inference_stats() const {
    return infer_ ? &infer_->stats() : nullptr;
  }
  // Revision-driven cache invalidation: DecidePass feeds RouteDelta /
  // dirty-net sets here so an ECO evicts exactly the affected graphs.
  void invalidate_cached_nets(std::span<const std::uint32_t> nets) {
    if (infer_) infer_->invalidate_nets(nets);
  }
  void clear_inference_cache() {
    if (infer_) infer_->clear_cache();
  }

 private:
  ml::PathGraph normalized(const ml::PathGraph& raw) const;

  GnnMlsConfig config_;
  util::Rng rng_;
  std::unique_ptr<ml::GraphTransformer> encoder_;
  std::unique_ptr<ml::MlpHead> head_;
  std::unique_ptr<ml::DgiTrainer> dgi_;
  ml::FeatureScaler scaler_;
  bool pretrained_ = false;
  ml::Mat predict_scratch_;  // scalar-path normalize buffer (no graph copies)
  std::unique_ptr<ml::InferenceEngine> infer_;
  bool infer_dirty_ = false;  // training moved weights since the last sync
};

}  // namespace gnnmls::mls
