// Pass-manager flow architecture tests: declarative scheduling from
// read/write sets, revision-aware skipping, incremental re-runs that stay
// bit-identical to cold runs, and serial-vs-parallel determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "flow/executor.hpp"
#include "flow/pass_manager.hpp"
#include "flow/registry.hpp"
#include "ft/policy.hpp"
#include "mls/flow.hpp"
#include "netlist/generators.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace {

using namespace gnnmls;

mls::DesignFlow make_flow(bool run_pdn = false, bool strict = false) {
  util::set_log_level(util::LogLevel::kWarn);
  mls::FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.run_pdn = run_pdn;
  cfg.strict_checks = strict;
  return mls::DesignFlow(netlist::make_maeri_16pe(), cfg);
}

std::vector<std::string> executed_names(const flow::RunReport& report) {
  std::vector<std::string> out;
  for (const flow::PassExecution& e : report.executed) out.push_back(e.name);
  return out;
}

// Bit-identical PPA rows: every field the paper's tables report. Warm and
// cold runs must agree exactly, so DOUBLE_EQ (not NEAR) is the point.
void expect_same_ppa(const mls::FlowMetrics& a, const mls::FlowMetrics& b) {
  EXPECT_DOUBLE_EQ(a.wl_m, b.wl_m);
  EXPECT_DOUBLE_EQ(a.wns_ps, b.wns_ps);
  EXPECT_DOUBLE_EQ(a.tns_ns, b.tns_ns);
  EXPECT_EQ(a.violating, b.violating);
  EXPECT_EQ(a.endpoints, b.endpoints);
  EXPECT_EQ(a.mls_nets, b.mls_nets);
  EXPECT_EQ(a.f2f_vias, b.f2f_vias);
  EXPECT_DOUBLE_EQ(a.power_mw, b.power_mw);
  EXPECT_DOUBLE_EQ(a.ls_power_mw, b.ls_power_mw);
  EXPECT_DOUBLE_EQ(a.eff_freq_mhz, b.eff_freq_mhz);
  EXPECT_DOUBLE_EQ(a.ir_drop_pct, b.ir_drop_pct);
  EXPECT_DOUBLE_EQ(a.pdn_util, b.pdn_util);
  EXPECT_EQ(a.overflow_gcells, b.overflow_gcells);
}

// ---- registry ---------------------------------------------------------------

TEST(PassRegistry, CanonicalOrderAndLookup) {
  const std::vector<std::string> names = flow::PassRegistry::instance().names();
  const std::vector<std::string> want = {"route", "dft", "sta", "power", "pdn", "check",
                                         "decide"};
  EXPECT_EQ(names, want);

  const std::unique_ptr<flow::Pass> route = flow::PassRegistry::instance().make("route");
  ASSERT_NE(route, nullptr);
  EXPECT_STREQ(route->name(), "route");
  EXPECT_EQ(flow::PassRegistry::instance().make("bogus"), nullptr);
}

TEST(PassRegistry, DeclaredSetsMatchTheDependencyDiagram) {
  const flow::PassRegistry& registry = flow::PassRegistry::instance();
  const std::unique_ptr<flow::Pass> route = registry.make("route");
  const std::unique_ptr<flow::Pass> dft = registry.make("dft");
  const std::unique_ptr<flow::Pass> sta = registry.make("sta");
  const std::unique_ptr<flow::Pass> power = registry.make("power");
  const std::unique_ptr<flow::Pass> pdn = registry.make("pdn");

  // Writers before readers; independent analyses don't conflict.
  EXPECT_TRUE(flow::PassManager::conflicts(*route, *sta));
  EXPECT_TRUE(flow::PassManager::conflicts(*route, *dft));   // WAW on routes
  EXPECT_TRUE(flow::PassManager::conflicts(*dft, *sta));
  EXPECT_FALSE(flow::PassManager::conflicts(*sta, *power));  // the parallel wave
  EXPECT_FALSE(flow::PassManager::conflicts(*sta, *pdn));
  EXPECT_FALSE(flow::PassManager::conflicts(*power, *pdn));
}

// ---- scheduling -------------------------------------------------------------

TEST(PassScheduling, WavesRespectTopologicalOrder) {
  mls::DesignFlow flow = make_flow(/*run_pdn=*/true);
  flow.evaluate_no_mls();
  const flow::RunReport& report = flow.last_run_report();

  ASSERT_TRUE(report.ran("route"));
  ASSERT_TRUE(report.ran("sta"));
  ASSERT_TRUE(report.ran("power"));
  ASSERT_TRUE(report.ran("pdn"));
  EXPECT_TRUE(report.skipped.empty());
  // route routes alone in wave 0; the three independent analyses share the
  // next wave.
  EXPECT_EQ(report.find("route")->wave, 0u);
  EXPECT_EQ(report.find("sta")->wave, 1u);
  EXPECT_EQ(report.find("power")->wave, 1u);
  EXPECT_EQ(report.find("pdn")->wave, 1u);
  EXPECT_EQ(report.waves, 2u);
}

TEST(PassScheduling, DftSerializesBetweenRouteAndAnalysis) {
  mls::DesignFlow flow = make_flow();
  flow.evaluate_with_dft({}, mls::Strategy::kNone, dft::MlsDftStyle::kWireBased);
  const flow::RunReport& report = flow.last_run_report();

  ASSERT_TRUE(report.ran("route"));
  ASSERT_TRUE(report.ran("dft"));
  ASSERT_TRUE(report.ran("sta"));
  EXPECT_LT(report.find("route")->wave, report.find("dft")->wave);
  EXPECT_LT(report.find("dft")->wave, report.find("sta")->wave);
}

TEST(PassScheduling, SecondEvaluateOnUnmutatedDbSchedulesZeroPasses) {
  mls::DesignFlow flow = make_flow(/*run_pdn=*/true);
  const mls::FlowMetrics cold = flow.evaluate_no_mls();
  EXPECT_EQ(flow.last_run_report().executed.size(), 4u);

  const mls::FlowMetrics warm = flow.evaluate_no_mls();
  const flow::RunReport& report = flow.last_run_report();
  EXPECT_TRUE(report.executed.empty());
  EXPECT_EQ(report.skipped.size(), 4u);
  EXPECT_EQ(report.waves, 0u);

  // The row is assembled from the DB's stage caches, so the PPA numbers
  // survive the skip; the stage clocks read zero.
  expect_same_ppa(cold, warm);
  EXPECT_DOUBLE_EQ(warm.route_s, 0.0);
  EXPECT_DOUBLE_EQ(warm.sta_s, 0.0);
  EXPECT_DOUBLE_EQ(warm.power_s, 0.0);
  EXPECT_DOUBLE_EQ(warm.pdn_s, 0.0);
}

TEST(PassScheduling, PureReadCheckPassSkipsViaFingerprintLedger) {
  mls::DesignFlow flow = make_flow(/*run_pdn=*/false, /*strict=*/true);
  flow.evaluate_no_mls();
  EXPECT_TRUE(flow.last_run_report().ran("check"));

  flow.evaluate_no_mls();
  EXPECT_TRUE(flow.last_run_report().executed.empty());

  // Any audited artifact changing re-arms the audit.
  flow.db().invalidate(core::Stage::kRoutes);
  flow.evaluate_no_mls();
  EXPECT_TRUE(flow.last_run_report().ran("check"));
}

TEST(PassScheduling, TouchedNetRerunsOnlyDependentPassesBitIdentically) {
  mls::DesignFlow flow = make_flow(/*run_pdn=*/true);
  const mls::FlowMetrics cold = flow.evaluate_no_mls();

  flow.db().touch_net(0);
  const mls::FlowMetrics warm = flow.evaluate_no_mls();
  const flow::RunReport& report = flow.last_run_report();

  // Everything downstream of routes re-runs; nothing else exists to skip in
  // this pipeline. The netlist did not move, so the route pass re-runs
  // route_all, which is bit-exact with the cold one.
  const std::vector<std::string> want = {"route", "sta", "power", "pdn"};
  EXPECT_EQ(executed_names(report), want);
  expect_same_ppa(cold, warm);
}

TEST(PassScheduling, FlagFlipMatchesColdRunOnTwinDesign) {
  // Twin flows over the same generated design: A goes baseline -> SOTA
  // (flag diff -> stale routes -> full re-route), B routes the SOTA flags
  // cold. The rows must match bit for bit.
  mls::DesignFlow a = make_flow(/*run_pdn=*/true);
  mls::DesignFlow b = make_flow(/*run_pdn=*/true);

  a.evaluate_no_mls();
  const mls::FlowMetrics flipped = a.evaluate_sota();
  EXPECT_TRUE(a.last_run_report().ran("route"));

  const mls::FlowMetrics cold = b.evaluate_sota();
  expect_same_ppa(flipped, cold);
}

// The counters say which path ran: a flag flip is a full route plus one
// full STA run and no ECO repair; a netlist ECO is one ECO repair.
TEST(PassScheduling, FlagFlipCountsAFullStaRunAndNoEcoReroute) {
  mls::DesignFlow flow = make_flow();
  flow.evaluate_no_mls();
  obs::Counter& full_runs = obs::Metrics::instance().counter("sta.full_runs");
  obs::Counter& eco_reroutes = obs::Metrics::instance().counter("route.eco_reroutes");
  const std::uint64_t runs_before = full_runs.value();
  const std::uint64_t ecos_before = eco_reroutes.value();

  flow.evaluate_sota();
  EXPECT_EQ(full_runs.value(), runs_before + 1);
  EXPECT_EQ(eco_reroutes.value(), ecos_before);
}

TEST(PassScheduling, BufferSpliceCountsOneEcoReroute) {
  mls::DesignFlow flow = make_flow();
  flow.evaluate_no_mls();

  // Splice a buffer pair behind the first driven net.
  netlist::Netlist& nl = flow.db().design().nl;
  netlist::Id tapped = netlist::kNullId;
  for (netlist::Id n = 0; n < nl.num_nets() && tapped == netlist::kNullId; ++n)
    if (nl.net(n).driver != netlist::kNullId) tapped = n;
  ASSERT_NE(tapped, netlist::kNullId);
  const netlist::Id b1 = nl.add_cell(tech::CellKind::kBuf, 0, 80.0f, 90.0f);
  const netlist::Id b2 = nl.add_cell(tech::CellKind::kBuf, 0, 200.0f, 150.0f);
  nl.add_sink(tapped, nl.input_pin(b1, 0));
  nl.connect(b1, 0, b2, 0);

  obs::Counter& eco_reroutes = obs::Metrics::instance().counter("route.eco_reroutes");
  const std::uint64_t ecos_before = eco_reroutes.value();
  flow.evaluate_no_mls();
  EXPECT_TRUE(flow.last_run_report().ran("route"));
  EXPECT_EQ(eco_reroutes.value(), ecos_before + 1);
}

TEST(PassScheduling, DftPassDoesNotReinsertOnSecondRun) {
  mls::DesignFlow flow = make_flow();
  const mls::DesignFlow::DftMetrics first =
      flow.evaluate_with_dft({}, mls::Strategy::kNone, dft::MlsDftStyle::kWireBased);
  EXPECT_GT(first.scan_flops, 0u);
  EXPECT_GT(first.coverage, 0.0);

  const mls::DesignFlow::DftMetrics second =
      flow.evaluate_with_dft({}, mls::Strategy::kNone, dft::MlsDftStyle::kWireBased);
  // kTest is fresh, so the insertion (and the whole pipeline) is skipped;
  // the fault simulation re-runs off the cached test model.
  EXPECT_TRUE(flow.last_run_report().executed.empty());
  EXPECT_EQ(second.scan_flops, 0u);
  EXPECT_EQ(second.total_faults, first.total_faults);
  EXPECT_EQ(second.detected_faults, first.detected_faults);
  expect_same_ppa(first.flow, second.flow);
}

TEST(PassScheduling, RunPassesRejectsUnknownNames) {
  mls::DesignFlow flow = make_flow();
  EXPECT_THROW(flow.run_passes({"route", "bogus"}, {}), std::invalid_argument);
}

TEST(PassScheduling, RunPassesHonorsCanonicalOrder) {
  mls::DesignFlow flow = make_flow();
  // Names given out of order still schedule route before sta.
  flow.run_passes({"sta", "route"}, {});
  const flow::RunReport& report = flow.last_run_report();
  ASSERT_TRUE(report.ran("route"));
  ASSERT_TRUE(report.ran("sta"));
  EXPECT_LT(report.find("route")->wave, report.find("sta")->wave);
}

// ---- parallel determinism ---------------------------------------------------

TEST(PassParallelism, FourThreadsBitIdenticalToSerial) {
  mls::DesignFlow serial = make_flow(/*run_pdn=*/true);
  const mls::FlowMetrics serial_m = serial.evaluate_no_mls();
  const std::vector<std::string> serial_order = executed_names(serial.last_run_report());

  ::setenv("GNNMLS_THREADS", "4", 1);
  mls::DesignFlow parallel = make_flow(/*run_pdn=*/true);
  const mls::FlowMetrics parallel_m = parallel.evaluate_no_mls();
  ::unsetenv("GNNMLS_THREADS");

  // Wave membership is derived from revisions and read/write sets alone, so
  // the schedule (and every PPA number) is thread-count-independent.
  EXPECT_EQ(executed_names(parallel.last_run_report()), serial_order);
  EXPECT_EQ(parallel.last_run_report().waves, serial.last_run_report().waves);
  expect_same_ppa(serial_m, parallel_m);

  // And the skip behavior survives the parallel run.
  ::setenv("GNNMLS_THREADS", "4", 1);
  parallel.evaluate_no_mls();
  ::unsetenv("GNNMLS_THREADS");
  EXPECT_TRUE(parallel.last_run_report().executed.empty());
}

// ---- executor ---------------------------------------------------------------

TEST(Executor, RunsEveryTaskAcrossThreads) {
  std::atomic<int> count{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) tasks.push_back([&count] { ++count; });
  flow::Executor(4).run(tasks);
  EXPECT_EQ(count.load(), 100);
}

TEST(Executor, SerialPreservesOrder) {
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back([&order, i] { order.push_back(i); });
  flow::Executor(1).run(tasks);
  const std::vector<int> want = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(order, want);
}

TEST(Executor, PropagatesTaskExceptions) {
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] {});
  tasks.push_back([] { throw std::runtime_error("boom"); });
  tasks.push_back([] {});
  EXPECT_THROW(flow::Executor(3).run(tasks), std::runtime_error);
  EXPECT_THROW(flow::Executor(1).run(tasks), std::runtime_error);
}

// Reads a knob through the accessor its owner uses, rendered as text.
std::string read_knob(util::env::Knob knob) {
  using util::env::Knob;
  const auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return std::string(buf);
  };
  switch (knob) {
    case Knob::kThreads: return num(flow::Executor::threads_from_env());
    case Knob::kAudit: return num(flow::PassManager::audit_enabled(mls::FlowConfig{}));
    case Knob::kMaxRetries: return num(ft::resolve({}).max_retries);
    case Knob::kBackoffMs: return num(ft::resolve({}).backoff_base_ms);
    case Knob::kPassBudgetS: return num(ft::resolve({}).pass_budget_s);
    case Knob::kGitRev: return util::env::git_rev();
    default: return util::env::str(knob);
  }
}

TEST(Executor, ClampsThreadCountFromEnv) {
  // Table-driven over every util/env knob: unset gives the default, a valid
  // value parses, and a malformed or out-of-range value falls back or clamps.
  using util::env::Knob;
  struct Case {
    Knob knob;
    const char* value;  // nullptr = unset
    const char* want;
  };
  const Case cases[] = {
      {Knob::kThreads, nullptr, "1"},       {Knob::kThreads, "7", "7"},
      {Knob::kThreads, "0", "1"},           {Knob::kThreads, "4096", "64"},
      {Knob::kThreads, "abc", "1"},         {Knob::kThreads, "", "1"},
      {Knob::kAudit, nullptr, "0"},         {Knob::kAudit, "1", "1"},
      {Knob::kAudit, "on", "1"},            {Knob::kAudit, "off", "0"},
      {Knob::kAudit, "0", "0"},             {Knob::kAudit, "", "0"},
      {Knob::kMaxRetries, nullptr, "2"},    {Knob::kMaxRetries, "5", "5"},
      {Knob::kMaxRetries, "-1", "2"},       {Knob::kMaxRetries, "abc", "0"},
      {Knob::kBackoffMs, nullptr, "0"},     {Knob::kBackoffMs, "2.5", "2.5"},
      {Knob::kBackoffMs, "-3", "0"},        {Knob::kBackoffMs, "nan", "0"},
      {Knob::kPassBudgetS, nullptr, "0"},   {Knob::kPassBudgetS, "0.25", "0.25"},
      {Knob::kPassBudgetS, "-1", "0"},      {Knob::kFault, nullptr, ""},
      {Knob::kFault, "sta.run:2", "sta.run:2"},
      {Knob::kFlightOut, nullptr, "flight_recorder.json"},
      {Knob::kFlightOut, "x.json", "x.json"}, {Knob::kFlightOut, "", ""},
      {Knob::kTrace, nullptr, ""},          {Knob::kTrace, "t.json", "t.json"},
      {Knob::kLogLevel, nullptr, "info"},   {Knob::kLogLevel, "warn", "warn"},
      {Knob::kSimd, nullptr, ""},           {Knob::kSimd, "scalar", "scalar"},
      {Knob::kGitRev, nullptr, "unknown"},  {Knob::kGitRev, "abc123", "abc123"},
      {Knob::kGitRev, "", "unknown"},
  };

  // Run with every knob unset; put the caller's environment back after.
  const std::span<const util::env::KnobInfo> knobs = util::env::knobs();
  ASSERT_EQ(knobs.size(), 11u);
  std::vector<std::optional<std::string>> saved;
  for (const util::env::KnobInfo& k : knobs) {
    saved.push_back(util::env::value(k.knob));
    ::unsetenv(k.name);
  }
  EXPECT_EQ(util::env::effective_env(), "(none)");
  std::vector<bool> covered(knobs.size(), false);
  for (const Case& c : cases) {
    const char* name = util::env::info(c.knob).name;
    covered[static_cast<std::size_t>(c.knob)] = true;
    if (c.value != nullptr) ::setenv(name, c.value, 1);
    EXPECT_EQ(read_knob(c.knob), c.want) << name << "=" << (c.value ? c.value : "(unset)");
    ::unsetenv(name);
  }
  for (std::size_t i = 0; i < knobs.size(); ++i) EXPECT_TRUE(covered[i]) << knobs[i].name;

  ::setenv("GNNMLS_THREADS", "4", 1);
  EXPECT_EQ(util::env::effective_env(), "GNNMLS_THREADS=4");
  ::unsetenv("GNNMLS_THREADS");
  for (std::size_t i = 0; i < knobs.size(); ++i)
    if (saved[i]) ::setenv(knobs[i].name, saved[i]->c_str(), 1);
}

}  // namespace
