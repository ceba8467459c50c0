#include "harness.hpp"

#include <utility>

namespace perfbench {

using namespace gnnmls;

const char* span_name(Layer layer) {
  switch (layer) {
    case Layer::kGenerate: return "netlist.generate_ms";
    case Layer::kPrepare: return "flow.prepare_ms";
    case Layer::kRoute: return "route.ms";
    case Layer::kSta: return "sta.ms";
    case Layer::kPower: return "power.ms";
    case Layer::kPdn: return "pdn.ms";
    case Layer::kTx: return "flow.tx_ms";
    case Layer::kSelect: return "mls.select_ms";
    case Layer::kDecide: return "ml.decide_ms";
    case Layer::kCorpus: return "mls.corpus_ms";
    case Layer::kPretrain: return "ml.pretrain_ms";
    case Layer::kFineTune: return "ml.fine_tune_ms";
    case Layer::kCheck: return "check.ms";
    case Layer::kEco: return "netlist.eco_ms";
    case Layer::kCount: break;
  }
  return "?";
}

const char* metric_name(Layer layer) {
  if (layer == Layer::kPower || layer == Layer::kSelect || layer == Layer::kEco) return nullptr;
  return span_name(layer);
}

bool used_in_setup(Layer layer) {
  return layer != Layer::kDecide && layer != Layer::kCheck && layer != Layer::kEco;
}

namespace {

// The corpus options DesignFlow::evaluate_gnn uses by default.
mls::CorpusOptions decide_corpus_options() { return mls::CorpusOptions{4000, true, 60.0, false, {}}; }

}  // namespace

double Spans::total_ms() const {
  double sum = 0.0;
  for (const double v : ms) sum += v;
  return sum;
}

mls::FlowMetrics evaluate(mls::DesignFlow& flow, const std::vector<std::uint8_t>& flags,
                          mls::Strategy strategy, Spans* spans) {
  if (spans == nullptr) return flow.evaluate(flags, strategy);
  static const std::pair<const char*, Layer> kPasses[] = {
      {"route", Layer::kRoute}, {"sta", Layer::kSta}, {"power", Layer::kPower}, {"pdn", Layer::kPdn}};
  mls::FlowMetrics m;
  bool degraded = false;
  std::size_t retries = 0;
  for (const auto& [pass, layer] : kPasses) {
    const Clock::time_point start = Clock::now();
    m = flow.run_passes({pass}, flags, strategy);
    const double call_ms = ms_since(start);
    // The pass manager's snapshot work sits inside the call; FlowMetrics
    // reports it, so charge it to the flow layer instead of the pass.
    (*spans)[layer] += call_ms - m.tx_s * 1e3;
    (*spans)[Layer::kTx] += m.tx_s * 1e3;
    const flow::RunReport& report = flow.last_run_report();
    spans->passes_run += report.executed.size();
    spans->passes_skipped += report.skipped.size();
    degraded = degraded || m.degraded;
    retries += m.retries;
  }
  m.degraded = degraded;
  m.retries = retries;
  return m;
}

mls::FlowMetrics evaluate_gnn(mls::DesignFlow& flow, mls::GnnMlsEngine& engine, Spans* spans) {
  if (spans == nullptr) return flow.evaluate_gnn(engine, decide_corpus_options());
  evaluate(flow, {}, mls::Strategy::kNone, spans);
  const std::vector<std::uint8_t> flags = spans->time(Layer::kDecide, [&] {
    return engine.decide(flow.design(), flow.tech(), flow.router(), flow.sta(),
                         decide_corpus_options());
  });
  return evaluate(flow, flags, mls::Strategy::kGnn, spans);
}

mls::TrainedEngine train(const std::vector<mls::DesignFlow*>& flows,
                         const mls::GnnMlsConfig& config, int paths_per_design, Spans* spans) {
  if (spans == nullptr) return mls::train_engine_on(flows, config, paths_per_design);
  mls::TrainedEngine out;
  out.engine = std::make_unique<mls::GnnMlsEngine>(config);
  std::vector<ml::PathGraph> pooled;
  int tag = 0;
  for (mls::DesignFlow* flow : flows) {
    evaluate(*flow, {}, mls::Strategy::kNone, spans);
    mls::CorpusOptions co;
    co.max_paths = paths_per_design;
    co.include_near_critical = true;
    co.attach_labels = true;
    const mls::Corpus corpus = spans->time(Layer::kCorpus, [&] { return flow->corpus(co, tag++); });
    pooled.insert(pooled.end(), corpus.graphs.begin(), corpus.graphs.end());
  }
  out.corpus_paths = pooled.size();
  if (pooled.empty()) return out;
  out.report.dgi_loss = spans->time(Layer::kPretrain, [&] { return out.engine->pretrain(pooled); });
  spans->pretrain_path_epochs += pooled.size() * static_cast<std::uint64_t>(config.dgi.epochs);
  mls::TrainReport ft = spans->time(Layer::kFineTune, [&] { return out.engine->fine_tune(pooled); });
  out.report.fine_tune_loss = std::move(ft.fine_tune_loss);
  out.report.train_metrics = ft.train_metrics;
  out.report.val_metrics = ft.val_metrics;
  out.report.train_seconds = ft.train_seconds;
  return out;
}

void Digest::add_row(const mls::FlowMetrics& m) {
  for (const char c : m.design + "/" + m.strategy) add(static_cast<std::uint64_t>(c));
  for (const double v : {m.wl_m, m.wns_ps, m.tns_ns, m.power_mw, m.ls_power_mw, m.ir_drop_pct,
                         m.eff_freq_mhz, m.pdn_width_um, m.pdn_pitch_um, m.pdn_util})
    add(v);
  for (const std::size_t v : {m.violating, m.endpoints, m.mls_nets, m.f2f_vias, m.overflow_gcells})
    add(static_cast<std::uint64_t>(v));
}

void Digest::add_report(const mls::TrainReport& r) {
  for (const double v : r.dgi_loss) add(v);
  for (const double v : r.fine_tune_loss) add(v);
  for (const util::BinaryMetrics& b : {r.train_metrics, r.val_metrics}) {
    add(b.accuracy);
    add(b.f1);
    for (const std::size_t v : {b.tp, b.fp, b.tn, b.fn}) add(static_cast<std::uint64_t>(v));
  }
}

}  // namespace perfbench
