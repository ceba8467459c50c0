// The three workloads. The workload seed fixes every input of a run: the
// engine seeds, the ECO sites and the a7-dual designs derive from it. The
// training designs and the ECO'd design are the paper's fixed maeri128 and
// a7-single (generator default seeds, as in bench_table4), so a seed changes
// what is learnt or edited, not how much work there is.
#include <algorithm>
#include <optional>
#include <stdexcept>

#include "harness.hpp"
#include "netlist/generators.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace gnnmls;

namespace {

// Independent sub-seed `stream` of the workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.next_u64();
}

template <class Gen>
std::unique_ptr<mls::DesignFlow> build_flow(Gen generate, const mls::FlowConfig& cfg,
                                            Spans* spans) {
  if (spans == nullptr) return std::make_unique<mls::DesignFlow>(generate(), cfg);
  netlist::Design design = spans->time(Layer::kGenerate, generate);
  return spans->time(Layer::kPrepare,
                     [&] { return std::make_unique<mls::DesignFlow>(std::move(design), cfg); });
}

mls::FlowConfig hetero_config() {
  mls::FlowConfig cfg;
  cfg.heterogeneous = true;
  return cfg;
}

check::Report run_checks(const mls::DesignFlow& flow, Spans* spans) {
  if (spans == nullptr) return flow.run_checks();
  return spans->time(Layer::kCheck, [&] { return flow.run_checks(); });
}

std::vector<std::uint8_t> sota_flags(const mls::DesignFlow& flow, Spans* spans) {
  if (spans == nullptr) return mls::sota_select(flow.design(), flow.config().sota);
  return spans->time(Layer::kSelect,
                     [&] { return mls::sota_select(flow.design(), flow.config().sota); });
}

void add_checks(Digest& d, const check::Report& report) {
  for (const auto& [rule, count] : report.per_rule_counts()) {
    for (const char c : rule) d.add(static_cast<std::uint64_t>(c));
    d.add(static_cast<std::uint64_t>(count));
  }
}

// Adds `weight` times the row's PPA figures; overflow is left to the caller.
void add_ppa(Quality& q, const mls::FlowMetrics& m, double weight) {
  q.eff_freq_mhz += weight * m.eff_freq_mhz;
  q.wl_m += weight * m.wl_m;
  q.power_mw += weight * m.power_mw;
  q.wns_ps += weight * m.wns_ps;
  q.tns_ns += weight * m.tns_ns;
  q.violating += weight * static_cast<double>(m.violating);
  q.ir_drop_pct += weight * m.ir_drop_pct;
}

void add_checks(Quality& q, const check::Report& report, double weight) {
  q.check_errors += weight * static_cast<double>(report.errors());
}

// ---- train ----------------------------------------------------------------
// Set-up: maeri128 and a7-single (hetero), generated, prepared and routed
// under No-MLS. Op: mls::train_engine_on with the bench recipe (DGI 6
// epochs, fine-tune 30 epochs) on kPathsPerDesign paths per design.
class TrainWorkload final : public Workload {
 public:
  // The bench recipe trains on 400 paths per design, a ~20 s op. Training
  // cost is linear in the path count, and an eighth of the corpus gives a
  // run about a dozen ops, so its op time is not one op at the host's mercy.
  static constexpr int kPathsPerDesign = 50;

  explicit TrainWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(Spans* spans) override {
    const mls::FlowConfig cfg = hetero_config();
    maeri_ = build_flow([] { return netlist::make_maeri_128pe(); }, cfg, spans);
    a7_ = build_flow([] { return netlist::make_a7_single_core(); }, cfg, spans);
    baseline_[0] = evaluate(*maeri_, {}, mls::Strategy::kNone, spans);
    baseline_[1] = evaluate(*a7_, {}, mls::Strategy::kNone, spans);
  }

  std::uint64_t setup_digest() override {
    Digest d;
    for (const mls::FlowMetrics& m : baseline_) d.add_row(m);
    d.add(maeri_->db().state_fingerprint());
    d.add(a7_->db().state_fingerprint());
    return d.value();
  }

  OpResult op(std::size_t /*index*/, Spans* spans) override {
    mls::GnnMlsConfig cfg;  // bench_engine_config() in bench/common.hpp
    cfg.dgi.epochs = 6;
    cfg.fine_tune.epochs = 30;
    cfg.seed = derive(seed_, 3);
    const Clock::time_point start = Clock::now();
    const mls::TrainedEngine trained =
        train({maeri_.get(), a7_.get()}, cfg, kPathsPerDesign, spans);
    OpResult r;
    r.ms = ms_since(start);
    Digest d;
    d.add_report(trained.report);
    d.add(static_cast<std::uint64_t>(trained.corpus_paths));
    r.digest = d.value();
    // Retraining from the same inputs must give the same engine.
    if (first_digest_ == 0) {
      first_digest_ = r.digest;
      val_f1_ = trained.report.val_metrics.f1;
    }
    repeatable_ = repeatable_ && r.digest == first_digest_;
    return r;
  }

  std::size_t min_ops() const override { return 1; }

  bool quality(Quality& q) override {
    for (const mls::FlowMetrics& m : baseline_) {
      add_ppa(q, m, 0.5);
      q.overflow_gcells += 0.5 * static_cast<double>(m.overflow_gcells);
    }
    add_checks(q, maeri_->run_checks(), 0.5);
    add_checks(q, a7_->run_checks(), 0.5);
    q.val_f1 = val_f1_;
    return repeatable_ && first_digest_ != 0;
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<mls::DesignFlow> maeri_, a7_;
  mls::FlowMetrics baseline_[2];
  std::uint64_t first_digest_ = 0;
  double val_f1_ = 0.0;
  bool repeatable_ = true;
};

// ---- a7_eval --------------------------------------------------------------
// Set-up: a compact engine (DGI 2 epochs, 200 paths) trained on a7-single.
// Op: one Table IV block on a freshly generated a7-dual (hetero, 9 um
// strap pitch): construct, No-MLS, GNN-MLS, SOTA, integrity checks. Ops
// cycle over kDesigns derived design seeds, so repeats must match.
class A7EvalWorkload final : public Workload {
 public:
  // Design seeds differ in how much routing they take. One cycle of eight
  // (~26 s) fills a 30 s run, so a run's op time averages eight designs
  // and moves little with the seed.
  static constexpr std::size_t kDesigns = 8;

  explicit A7EvalWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(Spans* spans) override {
    std::unique_ptr<mls::DesignFlow> a7 =
        build_flow([] { return netlist::make_a7_single_core(); }, hetero_config(), spans);
    mls::GnnMlsConfig cfg;
    cfg.dgi.epochs = 2;
    cfg.fine_tune.epochs = 30;
    cfg.seed = derive(seed_, 2);
    mls::TrainedEngine trained = train({a7.get()}, cfg, 200, spans);
    engine_ = std::move(trained.engine);
    report_ = std::move(trained.report);
    corpus_paths_ = trained.corpus_paths;
  }

  std::uint64_t setup_digest() override {
    Digest d;
    d.add_report(report_);
    d.add(static_cast<std::uint64_t>(corpus_paths_));
    return d.value();
  }

  void warm_up() override { block(derive(seed_, 99), nullptr); }

  OpResult op(std::size_t index, Spans* spans) override {
    const std::size_t slot = index % kDesigns;
    Block b = block(derive(seed_, 10 + slot), spans);
    std::optional<Block>& first = designs_[slot];
    if (!first) {
      first = b;
    } else if (first->result.digest != b.result.digest) {
      repeatable_ = false;
    }
    return b.result;
  }

  std::size_t min_ops() const override { return kDesigns; }
  std::size_t op_cycle() const override { return kDesigns; }

  bool quality(Quality& q) override {
    const double w = 1.0 / kDesigns;
    for (const std::optional<Block>& b : designs_) {
      if (!b) return false;
      add_ppa(q, b->gnn, w);
      q.overflow_gcells += w * b->overflow_sum;
      q.check_errors += w * b->errors;
    }
    q.val_f1 = report_.val_metrics.f1;
    return repeatable_;
  }

 private:
  struct Block {
    OpResult result;
    mls::FlowMetrics gnn;
    double overflow_sum = 0.0;
    double errors = 0.0;
  };

  Block block(std::uint64_t design_seed, Spans* spans) {
    mls::FlowConfig cfg = hetero_config();
    cfg.pdn.strap_pitch_um = 9.0;
    // Every op decides on a new design: start from a cold embedding cache.
    engine_->clear_inference_cache();
    const Clock::time_point start = Clock::now();
    std::unique_ptr<mls::DesignFlow> flow =
        build_flow([&] { return netlist::make_a7_dual_core(design_seed); }, cfg, spans);
    const mls::FlowMetrics none = evaluate(*flow, {}, mls::Strategy::kNone, spans);
    const mls::FlowMetrics gnn = evaluate_gnn(*flow, *engine_, spans);
    const mls::FlowMetrics sota = evaluate(*flow, sota_flags(*flow, spans), mls::Strategy::kSota, spans);
    const check::Report report = run_checks(*flow, spans);
    Block b;
    b.result.ms = ms_since(start);
    b.result.ok = clean(none) && clean(gnn) && clean(sota);
    Digest d;
    for (const mls::FlowMetrics* m : {&none, &gnn, &sota}) {
      d.add_row(*m);
      b.overflow_sum += static_cast<double>(m->overflow_gcells);
    }
    add_checks(d, report);
    d.add(flow->db().state_fingerprint());
    b.result.digest = d.value();
    b.gnn = gnn;
    b.errors = static_cast<double>(report.errors());
    return b;
  }

  std::uint64_t seed_;
  std::unique_ptr<mls::GnnMlsEngine> engine_;
  mls::TrainReport report_;
  std::size_t corpus_paths_ = 0;
  std::optional<Block> designs_[kDesigns];  // first run of each design
  bool repeatable_ = true;
};

// ---- maeri_eco ------------------------------------------------------------
// Set-up: maeri128 (hetero) evaluated once under sota_select flags. Op: a
// seeded buffer-splice ECO through the public Netlist API, then evaluate
// with the same flags (new nets unflagged). ECOs accumulate, so quality is
// taken after op kQualityOps, which every run reaches.
class MaeriEcoWorkload final : public Workload {
 public:
  static constexpr std::size_t kQualityOps = 100;

  explicit MaeriEcoWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(Spans* spans) override {
    flow_ = build_flow([] { return netlist::make_maeri_128pe(); }, hetero_config(), spans);
    flags_ = sota_flags(*flow_, spans);
    setup_row_ = evaluate(*flow_, flags_, mls::Strategy::kSota, spans);
  }

  std::uint64_t setup_digest() override {
    Digest d;
    d.add_row(setup_row_);
    d.add(flow_->db().state_fingerprint());
    return d.value();
  }

  OpResult op(std::size_t index, Spans* spans) override {
    const Clock::time_point start = Clock::now();
    if (spans == nullptr) {
      splice(derive(seed_, 1000 + index));
    } else {
      spans->time(Layer::kEco, [&] { splice(derive(seed_, 1000 + index)); });
    }
    const mls::FlowMetrics row = evaluate(*flow_, flags_, mls::Strategy::kSota, spans);
    OpResult r;
    r.ms = ms_since(start);
    r.ok = clean(row);
    Digest d;
    d.add_row(row);
    d.add(flow_->db().state_fingerprint());
    r.digest = d.value();
    if (index + 1 == kQualityOps) {
      quality_row_ = row;
      const check::Report report = flow_->run_checks();
      quality_errors_ = static_cast<double>(report.errors());
      reached_ = true;
    }
    return r;
  }

  std::size_t min_ops() const override { return kQualityOps; }

  bool quality(Quality& q) override {
    add_ppa(q, quality_row_, 1.0);
    q.overflow_gcells = static_cast<double>(quality_row_.overflow_gcells);
    q.check_errors = quality_errors_;
    return reached_;
  }

 private:
  // The buffer-splice ECO of tests/test_incremental.cpp: tap a seeded driven
  // net with a two-buffer chain placed beside the driver, on its tier.
  void splice(std::uint64_t site_seed) {
    netlist::Netlist& nl = flow_->db().design().nl;
    const netlist::DesignInfo& info = flow_->design().info;
    util::Rng rng(site_seed);
    std::vector<netlist::Id> driven;
    for (netlist::Id n = 0; n < nl.num_nets(); ++n)
      if (nl.net(n).driver != netlist::kNullId) driven.push_back(n);
    if (driven.empty()) throw std::logic_error("maeri_eco: no driven net to tap");
    const netlist::Id tapped = driven[rng.below(driven.size())];
    const netlist::CellInst driver = nl.cell(nl.pin(nl.net(tapped).driver).cell);
    // Up to 20 um from the previous point, kept on the die.
    float x = driver.x_um, y = driver.y_um;
    const auto step = [&rng](float v, double extent) {
      const double moved = v + 40.0 * (rng.uniform() - 0.5);
      return static_cast<float>(std::clamp(moved, 0.0, extent));
    };
    x = step(x, info.die_w_um);
    y = step(y, info.die_h_um);
    const netlist::Id b1 = nl.add_cell(tech::CellKind::kBuf, driver.tier, x, y);
    x = step(x, info.die_w_um);
    y = step(y, info.die_h_um);
    const netlist::Id b2 = nl.add_cell(tech::CellKind::kBuf, driver.tier, x, y);
    nl.add_sink(tapped, nl.input_pin(b1, 0));
    nl.connect(b1, 0, b2, 0);
    flags_.resize(nl.num_nets(), 0);
  }

  std::uint64_t seed_;
  std::unique_ptr<mls::DesignFlow> flow_;
  std::vector<std::uint8_t> flags_;
  mls::FlowMetrics setup_row_;
  mls::FlowMetrics quality_row_;
  double quality_errors_ = 0.0;
  bool reached_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "train") return std::make_unique<TrainWorkload>(seed);
  if (name == "a7_eval") return std::make_unique<A7EvalWorkload>(seed);
  if (name == "maeri_eco") return std::make_unique<MaeriEcoWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
