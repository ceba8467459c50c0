// GNN-MLS end to end: build training designs, generate STA-labeled timing
// paths, pretrain the graph transformer with DGI, fine-tune the MLP head,
// and let the engine make per-net MLS decisions on an unseen design —
// exactly the paper's Figure 4/5 pipeline.
#include <cstdio>

#include "mls/flow.hpp"
#include "util/log.hpp"

using namespace gnnmls;
using namespace gnnmls::mls;

int main() {
  util::set_log_level(util::LogLevel::kInfo);

  FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.run_pdn = false;

  // Training configurations (paper Section II-B: 500 paths per design).
  DesignFlow train_maeri(netlist::make_maeri_128pe(), cfg);
  DesignFlow train_a7(netlist::make_a7_single_core(), cfg);

  GnnMlsConfig engine_cfg;  // 3 transformer layers, 3 heads (paper III-C)
  TrainedEngine trained = train_engine_on({&train_maeri, &train_a7}, engine_cfg, 500);
  std::printf("\ntrained on %zu paths, %.1f s fine-tune time\n", trained.corpus_paths,
              trained.report.train_seconds);
  std::printf("validation: accuracy %.3f, precision %.3f, recall %.3f, F1 %.3f\n",
              trained.report.val_metrics.accuracy, trained.report.val_metrics.precision,
              trained.report.val_metrics.recall, trained.report.val_metrics.f1);
  if (!trained.report.dgi_loss.empty())
    std::printf("DGI loss: %.4f -> %.4f over %zu epochs\n", trained.report.dgi_loss.front(),
                trained.report.dgi_loss.back(), trained.report.dgi_loss.size());

  // Deploy on a design the engine never saw: the A7 dual-core.
  DesignFlow target(netlist::make_a7_dual_core(), cfg);
  const FlowMetrics before = target.evaluate_no_mls();
  const FlowMetrics after = target.evaluate_gnn(*trained.engine);

  std::printf("\nA7 dual-core (hetero), before vs after GNN-MLS:\n");
  std::printf("  WNS: %.1f -> %.1f ps\n", before.wns_ps, after.wns_ps);
  std::printf("  TNS: %.2f -> %.2f ns\n", before.tns_ns, after.tns_ns);
  std::printf("  violating endpoints: %zu -> %zu\n", before.violating, after.violating);
  std::printf("  MLS nets applied: %zu\n", after.mls_nets);
  std::printf("  effective frequency: %.0f -> %.0f MHz\n", before.eff_freq_mhz,
              after.eff_freq_mhz);
  return 0;
}
