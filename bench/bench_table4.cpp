// Table IV: PPA comparison in heterogeneous integration (16nm logic + 28nm
// memory): MAERI 128PE and A7 dual-core under No-MLS / SOTA / GNN-MLS.
//
// Paper reference rows (for the shape comparison):
//   MAERI 128PE: WNS -85/-29/-23 ps, TNS -327/-32/-11 ns, #Vio 14K/4.6K/2.8K,
//                #MLS 0/9.5K/2.37K, M-T 2.0um/7um/14%
//   A7 dual:     WNS -140/-118/-106, TNS -84/-94/-75, #Vio 4.5K/4.4K/4.2K,
//                #MLS 0/3,542/2,621, M-T 2.7um/9um/30%
#include "common.hpp"

using namespace gnnmls;
using namespace gnnmls::mls;

int main() {
  util::set_log_level(util::LogLevel::kWarn);
  bench::print_header("Table IV", "heterogeneous integration PPA (16nm logic + 28nm memory)");

  FlowConfig cfg;
  cfg.heterogeneous = true;
  // Paper PDN pitch: 7 um (MAERI) / 9 um (A7).
  FlowConfig a7cfg = cfg;
  a7cfg.pdn.strap_pitch_um = 9.0;

  DesignFlow maeri(netlist::make_maeri_128pe(), cfg);
  DesignFlow a7_train(netlist::make_a7_single_core(), cfg);
  auto trained = bench::train_bench_engine({&maeri, &a7_train});
  std::printf("engine: %zu training paths, val acc %.3f, f1 %.3f, %.1fs fine-tune time\n",
              trained.corpus_paths, trained.report.val_metrics.accuracy,
              trained.report.val_metrics.f1, trained.report.train_seconds);

  util::Table t = bench::ppa_table();
  bench::add_ppa_rows(t, maeri.evaluate_no_mls());
  bench::add_ppa_rows(t, maeri.evaluate_sota());
  bench::add_ppa_rows(t, maeri.evaluate_gnn(*trained.engine));

  DesignFlow a7(netlist::make_a7_dual_core(), a7cfg);
  bench::add_ppa_rows(t, a7.evaluate_no_mls());
  bench::add_ppa_rows(t, a7.evaluate_sota());
  bench::add_ppa_rows(t, a7.evaluate_gnn(*trained.engine));
  t.print();

  if (maeri.pdn_design()) {
    std::printf("MAERI M-T strap: W %.2f um / P %.0f um / U %.0f%% (paper 2.00/7/14%%)\n",
                maeri.pdn_design()->strap_width_um[1], maeri.pdn_design()->strap_pitch_um[1],
                maeri.pdn_design()->utilization[1] * 100.0);
  }
  if (a7.pdn_design()) {
    std::printf("A7    M-T strap: W %.2f um / P %.0f um / U %.0f%% (paper 2.70/9/30%%)\n",
                a7.pdn_design()->strap_width_um[1], a7.pdn_design()->strap_pitch_um[1],
                a7.pdn_design()->utilization[1] * 100.0);
  }
  bench::note("\nShape targets: GNN-MLS best WNS/TNS/#Vio on both designs; GNN-MLS uses");
  bench::note("fewer MLS nets than SOTA (selectivity); LS power grows slightly with MLS.");
  return 0;
}
