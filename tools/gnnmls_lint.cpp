// gnnmls_lint: standalone design-integrity checker.
//
// Generates one of the paper's benchmark designs, drives it through the
// pseudo-3D flow (optionally with SOTA sharing and/or DFT insertion), runs
// every registered check pass over the resulting state, and prints an
// OpenROAD-style diagnostics report with per-rule counts. Exit status is 0
// when no error-severity diagnostic fired, 1 otherwise — wire it into CI
// next to the unit tests (scripts/ci.sh does).
//
//   $ gnnmls_lint --design maeri16 --strategy sota
//   $ gnnmls_lint --list-rules
//   $ gnnmls_lint --inject dangling-pin        # demo: NL-001 must fire
//   $ gnnmls_lint --analyze-schedule           # static pass-contract proofs
//   $ gnnmls_lint --audit                      # runtime contract audit
//   $ gnnmls_lint --design maeri16 --profile --trace-out trace.json
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "audit/schedule_analyzer.hpp"
#include "check/checks.hpp"
#include "flow/pass_manager.hpp"
#include "flow/registry.hpp"
#include "ft/fault_plan.hpp"
#include "mls/flow.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

using namespace gnnmls;

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: gnnmls_lint [options]\n"
               "  --design NAME    maeri16 | maeri128 | maeri256 | a7-single | a7-dual |\n"
               "                   random   (default maeri16)\n"
               "  --seed N         generator seed override\n"
               "  --strategy S     none | sota | gnn   (default none; gnn stages a small\n"
               "                   engine: DGI pretrain on the baseline corpus, then the\n"
               "                   batched decide pass drives the routing)\n"
               "  --ml-engine E    scalar | batched   inference path for --strategy gnn\n"
               "                   (default batched; the A/B flag for the SIMD engine)\n"
               "  --homo           homogeneous 28nm+28nm stack (default heterogeneous)\n"
               "  --no-pdn         skip PDN synthesis and the IR-budget check\n"
               "  --with-dft       insert scan + wire-based MLS DFT, then check it\n"
               "  --inject FAULT   corrupt the design first, to demo a rule:\n"
               "                   dangling-pin | multi-driver | dead-cell\n"
               "  --inject-flow=S[:n]  arm fault site S to throw on its n-th visit (chaos\n"
               "                   testing; the flow must recover: retry, degrade, or roll\n"
               "                   back). Repeatable. See --list-fault-sites\n"
               "  --list-fault-sites  print the fault-site catalogue and exit\n"
               "  --list-rules     print the rule table and exit\n"
               "  --list-passes    print the flow-pass registry (read/write sets) and exit\n"
               "  --analyze-schedule  static schedule analysis (AU-00x) over the declared\n"
               "                   pass contracts — no flow run; honors --only; exits 1 on\n"
               "                   error-severity findings\n"
               "  --audit          run the flow with the DesignDB access recorder on and\n"
               "                   diff observed vs declared stage accesses (AU-10x)\n"
               "  --only=P1,P2     run only the named flow passes (canonical order) instead\n"
               "                   of the full pipeline; see --list-passes for names\n"
               "  --profile        trace the flow; print the effective env, the span\n"
               "                   profile table and the metrics ledger after the report\n"
               "  --trace-out F    write a Chrome trace-event JSON (chrome://tracing)\n"
               "                   of the flow to F (implies tracing)\n"
               "  --metrics-out F  dump the end-of-run obs::Metrics snapshot (counters,\n"
               "                   gauges, histogram quantiles) as JSON to F\n"
               "  --ledger F       append one schema-versioned perf-ledger record (JSONL)\n"
               "                   for this run to F; diff runs with gnnmls_report\n"
               "  --verbose        flow progress on stderr\n"
               "env (default in brackets):\n");
  for (const util::env::KnobInfo& k : util::env::knobs())
    std::fprintf(to, "  %-21s %s [%s]\n", k.name, k.help,
                 *k.default_value != '\0' ? k.default_value : "unset");
}

netlist::Design make_design(const std::string& name, std::uint64_t seed) {
  if (name == "maeri16") return netlist::make_maeri_16pe(seed ? seed : 11);
  if (name == "maeri128") return netlist::make_maeri_128pe(seed ? seed : 12);
  if (name == "maeri256") return netlist::make_maeri_256pe(seed ? seed : 13);
  if (name == "a7-single") return netlist::make_a7_single_core(seed ? seed : 14);
  if (name == "a7-dual") return netlist::make_a7_dual_core(seed ? seed : 15);
  if (name == "random") {
    netlist::RandomDagParams params;
    params.two_tier = true;
    if (seed) params.seed = seed;
    return netlist::make_random_dag(params);
  }
  std::fprintf(stderr, "gnnmls_lint: unknown design '%s'\n", name.c_str());
  std::exit(2);
}

// Pre-flow corruption used to demonstrate (and CI-exercise) the checker's
// negative paths without a netlist file format to feed it broken input.
void inject(netlist::Design& design, const std::string& fault) {
  netlist::Netlist& nl = design.nl;
  if (fault == "dangling-pin") {
    // A NAND with both inputs floating but its output wired up (a fully
    // disconnected cell would be an orphan, which the lint rightly skips):
    // NL-001 twice, plus NL-003 on the buffer it feeds.
    const netlist::Id nand = nl.add_cell(tech::CellKind::kNand2, 0, 10.0f, 10.0f);
    const netlist::Id buf = nl.add_cell(tech::CellKind::kBuf, 0, 12.0f, 10.0f);
    nl.connect(nand, 0, buf, 0);
  } else if (fault == "multi-driver") {
    // Point a second net at an existing driver pin (the construction API
    // refuses; the corruption hook bypasses it): NL-002, plus NL-005 for the
    // pin's stale back-reference.
    for (netlist::Id n = 0; n < nl.num_nets(); ++n) {
      if (nl.net(n).driver == netlist::kNullId) continue;
      const netlist::Id dup = nl.add_net();
      const netlist::Id sink = nl.add_cell(tech::CellKind::kBuf, 0, 5.0f, 5.0f);
      nl.add_sink(dup, nl.input_pin(sink, 0));
      nl.corrupt_driver_for_test(dup, nl.net(n).driver);
      break;
    }
  } else if (fault == "dead-cell") {
    // Driven but driving nothing: NL-003.
    const netlist::Id cell = nl.add_cell(tech::CellKind::kInv, 0, 20.0f, 20.0f);
    for (netlist::Id n = 0; n < nl.num_nets(); ++n)
      if (nl.net(n).driver != netlist::kNullId) {
        nl.add_sink(n, nl.input_pin(cell, 0));
        break;
      }
  } else {
    std::fprintf(stderr, "gnnmls_lint: unknown injection '%s'\n", fault.c_str());
    std::exit(2);
  }
}

void list_rules() {
  std::printf("%-9s %-22s %-8s %s\n", "id", "name", "severity", "invariant");
  for (const check::RuleInfo& r : check::all_rules())
    std::printf("%-9s %-22s %-8s %s\n", r.id, r.name, check::to_string(r.severity).c_str(),
                r.invariant);
}

std::string join_stages(const std::vector<core::Stage>& stages) {
  std::string out;
  for (const core::Stage s : stages) {
    if (!out.empty()) out += ",";
    out += core::to_string(s);
  }
  return out.empty() ? "-" : out;
}

void list_fault_sites() {
  std::printf("%-16s %-6s %s\n", "site", "throws", "partial state when tripped");
  for (const ft::FaultSite& s : ft::FaultPlan::known_sites())
    std::printf("%-16s %-6s %s\n", s.name, s.throws_logic_error ? "logic" : "flow",
                s.description);
}

void list_passes() {
  std::printf("%-8s %-34s %s\n", "pass", "reads", "writes");
  const flow::PassRegistry& registry = flow::PassRegistry::instance();
  for (const std::string& name : registry.names()) {
    const std::unique_ptr<flow::Pass> pass = registry.make(name);
    std::printf("%-8s %-34s %s\n", name.c_str(), join_stages(pass->reads()).c_str(),
                join_stages(pass->writes()).c_str());
  }
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(start, comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string design_name = "maeri16";
  std::string strategy = "none";
  std::string ml_engine = "batched";
  std::string injection;
  std::string trace_out;
  std::string metrics_out;
  std::string ledger_path;
  std::vector<std::string> only;
  std::uint64_t seed = 0;
  bool hetero = true, run_pdn = true, with_dft = false, verbose = false, profile = false;
  bool chaos = false, analyze_schedule = false, audit = false;
  obs::init_from_env();  // honor GNNMLS_TRACE before the flow starts
  chaos = ft::FaultPlan::init_from_env();  // honor GNNMLS_FAULT (exits 2 on bad specs)

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "gnnmls_lint: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--design") design_name = value();
    else if (arg == "--seed") seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--strategy") strategy = value();
    else if (arg.rfind("--ml-engine=", 0) == 0) ml_engine = arg.substr(12);
    else if (arg == "--ml-engine") ml_engine = value();
    else if (arg == "--homo") hetero = false;
    else if (arg == "--no-pdn") run_pdn = false;
    else if (arg == "--with-dft") with_dft = true;
    else if (arg == "--inject") injection = value();
    else if (arg.rfind("--inject-flow=", 0) == 0 || arg == "--inject-flow") {
      const std::string spec = arg == "--inject-flow" ? value() : arg.substr(14);
      try {
        ft::FaultPlan::instance().arm_spec(spec);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "gnnmls_lint: %s (see --list-fault-sites)\n", e.what());
        return 2;
      }
      chaos = true;
    }
    else if (arg == "--list-fault-sites") { list_fault_sites(); return 0; }
    else if (arg == "--list-rules") { list_rules(); return 0; }
    else if (arg == "--list-passes") { list_passes(); return 0; }
    else if (arg == "--analyze-schedule") analyze_schedule = true;
    else if (arg == "--audit") audit = true;
    else if (arg.rfind("--only=", 0) == 0) only = split_csv(arg.substr(7));
    else if (arg == "--only") only = split_csv(value());
    else if (arg == "--profile") profile = true;
    else if (arg == "--trace-out") trace_out = value();
    else if (arg.rfind("--metrics-out=", 0) == 0) metrics_out = arg.substr(14);
    else if (arg == "--metrics-out") metrics_out = value();
    else if (arg.rfind("--ledger=", 0) == 0) ledger_path = arg.substr(9);
    else if (arg == "--ledger") ledger_path = value();
    else if (arg == "--verbose") verbose = true;
    else if (arg == "--help" || arg == "-h") { usage(stdout); return 0; }
    else {
      usage(stderr);
      return 2;
    }
  }
  if (strategy != "none" && strategy != "sota" && strategy != "gnn") {
    std::fprintf(stderr, "gnnmls_lint: unknown strategy '%s'\n", strategy.c_str());
    return 2;
  }
  if (ml_engine != "scalar" && ml_engine != "batched") {
    std::fprintf(stderr, "gnnmls_lint: unknown ml engine '%s'\n", ml_engine.c_str());
    return 2;
  }
  if (strategy == "gnn" && !only.empty()) {
    std::fprintf(stderr, "gnnmls_lint: --strategy gnn needs the full pipeline (drop --only)\n");
    return 2;
  }
  for (const std::string& name : only)
    if (!flow::PassRegistry::instance().make(name)) {
      std::fprintf(stderr, "gnnmls_lint: unknown flow pass '%s' (see --list-passes)\n",
                   name.c_str());
      return 2;
    }

  if (analyze_schedule) {
    // Static mode: prove/refute the declared contracts, no flow run at all.
    const audit::ScheduleModel model = audit::model_from_registry(only);
    const audit::ScheduleAnalysis analysis = audit::analyze(model);
    std::printf("schedule analysis over %zu registered pass(es):\n%s\n",
                analysis.passes, analysis.render_waves(model).c_str());
    std::fputs(analysis.report.render().c_str(), stdout);
    std::printf("%s\n", analysis.summary_line().c_str());
    if (!analysis.clean()) {
      std::printf("gnnmls_lint: FAILED (%zu schedule error(s))\n", analysis.report.errors());
      return 1;
    }
    std::printf("gnnmls_lint: clean\n");
    return 0;
  }

  util::set_log_level(verbose ? util::LogLevel::kInfo : util::LogLevel::kWarn);
  if (profile || !trace_out.empty()) obs::Tracer::instance().set_enabled(true);

  netlist::Design design = make_design(design_name, seed);
  if (!injection.empty()) inject(design, injection);
  std::printf("gnnmls_lint: %s (%zu cells, %zu nets), %s stack, strategy %s%s%s\n",
              design.info.name.c_str(), design.nl.num_cells(), design.nl.num_nets(),
              hetero ? "heterogeneous" : "homogeneous", strategy.c_str(),
              with_dft ? ", with DFT" : "",
              injection.empty() ? "" : (" -- injected " + injection).c_str());

  mls::FlowConfig config;
  config.heterogeneous = hetero;
  config.run_pdn = run_pdn;
  config.audit = audit;
  const bool audit_on = flow::PassManager::audit_enabled(config);  // --audit or GNNMLS_AUDIT
  mls::DesignFlow flow(std::move(design), config);

  std::vector<std::uint8_t> flags = (strategy == "sota")
                                        ? mls::sota_select(flow.design(), config.sota)
                                        : std::vector<std::uint8_t>{};
  const mls::Strategy tag = (strategy == "sota")  ? mls::Strategy::kSota
                            : (strategy == "gnn") ? mls::Strategy::kGnn
                                                  : mls::Strategy::kNone;
  // --strategy gnn stages a deliberately small engine (1-epoch DGI pretrain
  // on the baseline corpus): enough to exercise the full inference path —
  // batched SIMD engine, embedding cache, GNN→SOTA degradation — without
  // turning a lint run into a training run.
  std::unique_ptr<mls::GnnMlsEngine> gnn_engine;
  mls::CorpusOptions gnn_corpus;
  gnn_corpus.max_paths = 120;
  gnn_corpus.attach_labels = false;
  if (strategy == "gnn") {
    mls::GnnMlsConfig gcfg;
    gcfg.dgi.epochs = 1;
    gcfg.ml_engine =
        ml_engine == "scalar" ? mls::MlEnginePath::kScalar : mls::MlEnginePath::kBatched;
    gnn_engine = std::make_unique<mls::GnnMlsEngine>(gcfg);
  }
  bool flow_ok = true;
  mls::FlowMetrics flow_metrics;
  try {
    if (!only.empty()) {
      flow_metrics = flow.run_passes(only, flags, tag);
    } else if (strategy == "gnn") {
      flow.evaluate_no_mls();
      gnn_engine->pretrain(flow.corpus(gnn_corpus).graphs);
      flow_metrics = flow.evaluate_gnn(*gnn_engine, gnn_corpus);
      flags = flow.decide_flags();
      if (with_dft)
        flow_metrics = flow.evaluate_with_dft(flags, tag, dft::MlsDftStyle::kWireBased).flow;
    } else if (with_dft) {
      flow_metrics = flow.evaluate_with_dft(flags, tag, dft::MlsDftStyle::kWireBased).flow;
    } else {
      flow_metrics = flow.evaluate(flags, tag);
    }
  } catch (const std::exception& e) {
    // A corrupt netlist can kill the flow mid-stage (e.g. a multi-driver net
    // stalls the STA topological sort). Diagnosing that is this tool's job,
    // so fall through and lint whatever state exists.
    std::fprintf(stderr, "gnnmls_lint: flow aborted: %s -- linting partial state\n",
                 e.what());
    flow_ok = false;
  }
  bool rollback_leak = false;
  // Captured before the reschedule probe below (its second run resets the
  // manager's report): the contract-audit findings of the main flow run.
  std::vector<ft::AuditViolation> audit_violations;
  std::size_t audited_passes = 0;
  {
    const flow::RunReport& first = flow.last_run_report();
    std::printf("flow schedule: %zu pass(es) in %zu wave(s), %zu skipped\n",
                first.executed.size(), first.waves, first.skipped.size());
    // Recovery summary, one greppable line (ci.sh gates a clean run on
    // degraded=0 retries=0 and the chaos sweep on "leaked=0" + exit 0).
    for (const flow::RollbackRecord& rb : first.rollbacks)
      if (rb.pre_fp != rb.post_fp) rollback_leak = true;
    std::printf("recovery: degraded=%d retries=%zu rollbacks=%zu faults_injected=%llu leaked=%d\n",
                flow_metrics.degraded ? 1 : 0, flow_metrics.retries, first.rollbacks.size(),
                static_cast<unsigned long long>(ft::FaultPlan::instance().tripped()),
                rollback_leak ? 1 : 0);
    if (audit_on) {
      audit_violations = first.audit;
      audited_passes = first.audited;
      std::size_t undeclared_writes = 0, undeclared_reads = 0;
      for (const ft::AuditViolation& v : audit_violations)
        (v.kind == ft::ViolationKind::kUndeclaredWrite ? undeclared_writes
                                                       : undeclared_reads)++;
      // The ci.sh audit gate greps this line for all-zero counts.
      std::printf("audit: passes=%zu undeclared_writes=%zu undeclared_reads=%zu\n",
                  audited_passes, undeclared_writes, undeclared_reads);
      for (const ft::AuditViolation& v : audit_violations)
        std::printf("%s\n", v.line().c_str());
    }
  }

  if (gnn_engine) {
    // One greppable line for the ci.sh ml-engine gate: which inference path
    // and kernel dispatch served decide, plus the embedding-cache traffic.
    const ml::EngineStats* st = gnn_engine->inference_stats();
    std::printf(
        "ml-engine: path=%s simd=%s batches=%llu batch_paths=%llu cache_hits=%llu "
        "cache_misses=%llu\n",
        mls::to_string(gnn_engine->config().ml_engine), ml::to_string(ml::active_simd()),
        static_cast<unsigned long long>(st ? st->batches : 0),
        static_cast<unsigned long long>(st ? st->paths : 0),
        static_cast<unsigned long long>(st ? st->cache_hits : 0),
        static_cast<unsigned long long>(st ? st->cache_misses : 0));
  }

  // Scheduling probe: a second evaluate on the now-unmutated DB must find
  // every stage fresh and schedule nothing (ci.sh greps for the 0). Skipped
  // when the flow aborted — partial state legitimately reschedules.
  if (flow_ok) {
    if (!only.empty())
      flow.run_passes(only, flags, tag);
    else
      flow.evaluate(flags, tag);
    std::printf("reschedule: %zu pass(es) on an unmutated DB\n",
                flow.last_run_report().executed.size());
  }

  // One greppable line for the ci.sh thread-sweep gate: runs under
  // GNNMLS_THREADS=1/2/4 must print the same fingerprint (the sharded
  // router's determinism contract, enforced end-to-end over the full flow).
  std::printf("state fingerprint: 0x%016llx\n",
              static_cast<unsigned long long>(flow.db().state_fingerprint()));

  // Stage-artifact ledger: which artifacts exist, at which revision, and
  // whether their upstream moved from under them. "stale" here is the same
  // predicate RT-005 and the incremental-ECO path key off.
  std::printf("\nstage artifacts (netlist at revision %llu):\n",
              static_cast<unsigned long long>(flow.db().revision(core::Stage::kNetlist)));
  std::printf("  %-10s %-10s %-12s %s\n", "stage", "revision", "built-from", "state");
  for (std::size_t i = 0; i < core::kNumStages; ++i) {
    const core::Stage s = static_cast<core::Stage>(i);
    const core::StageTag& t = flow.db().tag(s);
    if (s == core::Stage::kNetlist) {
      std::printf("  %-10s %-10llu %-12s %s\n", core::to_string(s),
                  static_cast<unsigned long long>(flow.db().revision(s)), "-", "root");
      continue;
    }
    std::printf("  %-10s %-10llu %-12llu %s\n", core::to_string(s),
                static_cast<unsigned long long>(t.revision),
                static_cast<unsigned long long>(t.built_from),
                !flow.db().built(s) ? "not built"
                                    : (flow.db().fresh(s) ? "fresh" : "STALE"));
  }
  std::printf("\n");

  check::Report report = flow.run_checks();
  // Dynamic contract findings ride the standard report as AU-10x rules, so
  // the per-rule count table and the error exit path cover them too.
  for (const ft::AuditViolation& v : audit_violations) {
    const check::RuleInfo* rule = check::find_rule(
        v.kind == ft::ViolationKind::kUndeclaredWrite ? "AU-101" : "AU-102");
    report.add(*rule, "pass " + v.pass,
               std::string(ft::to_string(v.kind)) + " of stage " + core::to_string(v.stage) +
                   " at db revision " + std::to_string(v.db_revision));
  }
  std::fputs(report.render().c_str(), stdout);

  if (profile) {
    std::printf("\neffective env: %s\n", util::env::effective_env().c_str());
    std::printf("\nspan profile:\n%s", obs::Tracer::instance().profile_table().c_str());
    std::printf("\nmetrics:\n%s", obs::Metrics::instance().table().c_str());
  }
  if (!trace_out.empty()) {
    if (obs::Tracer::instance().write_chrome_trace(trace_out))
      std::printf("\ngnnmls_lint: wrote Chrome trace to %s (open in chrome://tracing)\n",
                  trace_out.c_str());
    else
      std::fprintf(stderr, "gnnmls_lint: could not write trace to %s\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    std::ofstream f(metrics_out);
    if (f) {
      f << obs::Metrics::instance().to_json() << "\n";
      std::printf("gnnmls_lint: wrote metrics snapshot to %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "gnnmls_lint: could not write metrics to %s\n", metrics_out.c_str());
    }
  }
  if (!ledger_path.empty()) {
    std::string label = design_name + "/" + strategy;
    if (with_dft) label += "+dft";
    obs::LedgerRecord rec = obs::make_record("flow", label);
    rec.stages["route"] = flow_metrics.route_s;
    rec.stages["sta"] = flow_metrics.sta_s;
    rec.stages["power"] = flow_metrics.power_s;
    rec.stages["pdn"] = flow_metrics.pdn_s;
    rec.stages["check"] = flow_metrics.check_s;
    rec.stages["decide"] = flow_metrics.decide_s;
    rec.stages["dft"] = flow_metrics.dft_s;
    rec.stages["tx"] = flow_metrics.tx_s;
    rec.stages["runtime"] = flow_metrics.runtime_s;
    char fp[20];
    std::snprintf(fp, sizeof fp, "0x%016llx",
                  static_cast<unsigned long long>(flow.db().state_fingerprint()));
    rec.fingerprint = fp;
    if (obs::append_jsonl(ledger_path, rec))
      std::printf("gnnmls_lint: appended ledger record to %s\n", ledger_path.c_str());
    else
      std::fprintf(stderr, "gnnmls_lint: could not append ledger to %s\n", ledger_path.c_str());
  }

  if (!report.clean()) {
    std::printf("gnnmls_lint: FAILED (%zu error(s))\n", report.errors());
    return 1;
  }
  if (chaos && !flow_ok) {
    std::printf("gnnmls_lint: FAILED (injected fault was not recovered)\n");
    return 1;
  }
  if (rollback_leak) {
    std::printf("gnnmls_lint: FAILED (rollback left the DB fingerprint changed)\n");
    return 1;
  }
  std::printf("gnnmls_lint: clean\n");
  return 0;
}
