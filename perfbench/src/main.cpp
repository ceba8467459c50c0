// Repository benchmark driver.
//
//   perfbench_driver --workload <train|a7_eval|maeri_eco> --seed <n>
//                    --seconds <s> --trace <0|1>
//
// --trace 0 times whole set-ups and ops through the library's high-level
// API and reports the end-to-end metrics. --trace 1 runs every op twice, once
// untraced and once replayed layer by layer on a second copy of the
// workload, checks that the two agree bit for bit, and reports the
// per-layer metrics. The last stdout line is one JSON record that
// perfbench/run.py turns into the benchmark result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "ml/kernels.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

extern char** environ;

namespace perfbench {
namespace {

// Thread count every workload runs with. One thread gave the steadiest
// op times on a 4-CPU host (see perfbench/README.md).
constexpr const char* kThreads = "1";
// An untraced run sets up at least kMinSetups times and until kSetupBudgetS
// seconds are spent; setup_s is the median. The budget gives the sub-second
// set-ups (train, maeri_eco) about ten samples or more per run. Half the
// budget is spent before the ops and the rest after them, on copies that
// are thrown away, so that the samples span the whole run as the op times
// do: the host's speed drifts over tens of seconds.
constexpr int kMinSetups = 3;
constexpr double kSetupBudgetS = 8.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload <train|a7_eval|maeri_eco> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(o.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return false;
      o.trace = val[0] - '0';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0 && o.trace >= 0;
}

// Refuses builds and environments whose timings would not be comparable:
// assertion or sanitizer builds, and any GNNMLS_* knob (fault injection,
// audit, tracing, recovery policy, SIMD override, ...) set by the caller.
// Returns an empty string when the run may go ahead.
std::string refusal() {
#ifndef NDEBUG
  return "assertions are enabled (Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "sanitizer build";
#endif
#endif
  const std::string build = PERFBENCH_BUILD_TYPE;
  if (build != "Release" && build != "RelWithDebInfo")
    return "build type '" + build + "' (want Release or RelWithDebInfo)";
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "GNNMLS_", 7) == 0) return std::string("environment sets ") + *e;
  return {};
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, or NaN unless at least ten samples lie above it.
double tail_percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return NAN;
  const std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * v.size()));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (v.size() - 1 - idx < 10) return NAN;
  return v[idx];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_object(const std::vector<Metric>& metrics, bool with_units) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": ";
    out += with_units ? "{\"value\": " + num(m.value) + ", \"unit\": \"" + m.unit + "\"}"
                      : num(m.value);
  }
  return out + "}";
}

std::vector<Metric> end_to_end_quality(const Quality& q) {
  return {{"eff_freq_mhz", q.eff_freq_mhz, "MHz"},
          {"wl_m", q.wl_m, "m"},
          {"power_mw", q.power_mw, "mW"},
          {"overflow_gcells", q.overflow_gcells, "count"},
          {"ir_drop_pct", q.ir_drop_pct, "%"}};
}

std::vector<Metric> per_layer_quality(const Quality& q) {
  return {{"sta.wns_ps", q.wns_ps, "ps"},
          {"sta.tns_ns", q.tns_ns, "ns"},
          {"sta.violating", q.violating, "count"},
          {"ml.val_f1", q.val_f1, "ratio"},
          {"check.errors", q.check_errors, "count"}};
}

std::vector<Metric> all_quality(const Quality& q) {
  std::vector<Metric> all = end_to_end_quality(q);
  for (Metric& m : per_layer_quality(q)) all.push_back(std::move(m));
  return all;
}

// Op counts read from the library's obs::Metrics registry (reset per op).
constexpr const char* kCounters[] = {
    "route.edges_routed", "route.commit_repairs", "route.negotiation_iters", "route.ripups",
    "route.eco_reroutes", "pdn.ir_iterations",    "sta.pin_evals",           "sta.full_runs",
    "sta.incremental_updates", "ml.cache_hits",   "ml.cache_misses",
};

struct RunOutcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<double> op_ms;
  Quality quality;
};

void fail(RunOutcome& out, const std::string& why) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  out.correct = false;
}

// Runs whole op cycles while the next cycle is expected to end within the
// time budget (the previous cycle's time is the estimate), and at least
// min_ops() ops. `each` runs op i and returns its untraced result.
template <class Each>
void op_loop(const Workload& w, double seconds, RunOutcome& out, Each each) {
  const Clock::time_point start = Clock::now();
  double last_cycle_ms = 0.0;
  for (std::size_t i = 0; i < w.min_ops() || ms_since(start) + last_cycle_ms <= seconds * 1e3;) {
    const Clock::time_point cycle_start = Clock::now();
    for (const std::size_t end = i + w.op_cycle(); i < end; ++i) {
      ++out.attempted;
      try {
        const OpResult r = each(i);
        out.op_ms.push_back(r.ms);
        if (!r.ok) ++out.failed;
      } catch (const std::exception& e) {
        ++out.failed;
        fail(out, std::string("op ") + std::to_string(i) + " threw: " + e.what());
      }
    }
    last_cycle_ms = ms_since(cycle_start);
  }
}

void finish_quality(Workload& w, RunOutcome& out) {
  if (!w.quality(out.quality)) fail(out, "quality figures missing or not repeatable within the run");
}

RunOutcome run_untraced(const Options& o) {
  RunOutcome out;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  // Sets up fresh copies (freeing the previous one first) until `min` set-ups
  // and `budget_s` seconds of them are done; w holds the last copy. Returns
  // the seconds spent.
  const auto setups = [&](int min, double budget_s) {
    const Clock::time_point setups_start = Clock::now();
    for (int k = 0; k < min || ms_since(setups_start) < budget_s * 1e3; ++k) {
      w.reset();
      w = make_workload(o.workload, o.seed);
      const Clock::time_point start = Clock::now();
      w->setup(nullptr);
      setup_s.push_back(ms_since(start) / 1e3);
    }
    return ms_since(setups_start) / 1e3;
  };
  const double before_s = setups(kMinSetups - 1, kSetupBudgetS / 2);
  w->warm_up();
  op_loop(*w, o.seconds, out, [&](std::size_t i) { return w->op(i, nullptr); });
  finish_quality(*w, out);
  setups(1, kSetupBudgetS - before_s);
  w.reset();
  std::printf("setup_s:");
  for (const double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");
  out.metrics = {{"setup_s", median(setup_s), "s"},
                 // The mean, not the median: the host switches between a fast
                 // and a slow state every few seconds, and a run's median jumps
                 // to whichever state held more than half its ops, while the
                 // mean moves with the share of time spent slow (perfbench/README.md).
                 {"op_ms_mean", mean(out.op_ms), "ms"},
                 {"peak_rss_mb", peak_rss_mb(), "MB"},
                 {"ok_ratio",
                  static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
                  "ratio"}};
  for (Metric& m : end_to_end_quality(out.quality)) out.metrics.push_back(std::move(m));
  return out;
}

RunOutcome run_traced(const Options& o) {
  RunOutcome out;
  std::unique_ptr<Workload> plain = make_workload(o.workload, o.seed);
  std::unique_ptr<Workload> traced = make_workload(o.workload, o.seed);
  plain->setup(nullptr);
  Spans setup_spans;
  traced->setup(&setup_spans);
  if (plain->setup_digest() != traced->setup_digest()) fail(out, "traced set-up differs from untraced");
  plain->warm_up();

  gnnmls::obs::Metrics& registry = gnnmls::obs::Metrics::instance();
  Spans op_spans;
  std::map<std::string, double> counts;
  double untraced_ms = 0.0, traced_ms = 0.0;
  op_loop(*plain, o.seconds, out, [&](std::size_t i) {
    const OpResult a = plain->op(i, nullptr);
    registry.reset();
    const OpResult b = traced->op(i, &op_spans);
    for (const char* name : kCounters) counts[name] += static_cast<double>(registry.counter(name).value());
    if (a.digest != b.digest || a.ok != b.ok)
      fail(out, "traced replay of op " + std::to_string(i) + " differs from the untraced op");
    untraced_ms += a.ms;
    traced_ms += b.ms;
    return a;
  });
  finish_quality(*plain, out);

  const double n = static_cast<double>(std::max<std::size_t>(out.op_ms.size(), 1));
  std::vector<Metric>& m = out.metrics;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    const Layer layer = static_cast<Layer>(l);
    if (metric_name(layer) == nullptr) continue;
    m.push_back({metric_name(layer), op_spans.ms[l] / n, "ms"});
    if (used_in_setup(layer))
      m.push_back({std::string("setup.") + metric_name(layer), setup_spans.ms[l], "ms"});
  }
  const double unattributed = (traced_ms - op_spans.total_ms()) / n;
  m.push_back({"unattributed_ms", unattributed, "ms"});
  // The layer spans must cover the traced op: glue between calls stays small.
  if (unattributed > 0.02 * traced_ms / n + 1.0)
    fail(out, "layer spans miss " + num(unattributed) + " ms of a " + num(traced_ms / n) + " ms op");
  m.push_back({"trace_overhead_pct", 100.0 * (traced_ms - untraced_ms) / untraced_ms, "%"});
  const double path_epochs = static_cast<double>(op_spans.pretrain_path_epochs);
  m.push_back({"ml.pretrain_ms_per_path_epoch",
               path_epochs > 0 ? op_spans[Layer::kPretrain] / path_epochs : 0.0, "ms/path-epoch"});
  for (const char* name : kCounters) m.push_back({name, counts[name] / n, "count"});
  const double edges = counts["route.edges_routed"];
  m.push_back({"route.repair_ratio", edges > 0 ? counts["route.commit_repairs"] / edges : 0.0, "ratio"});
  m.push_back({"flow.passes_run", static_cast<double>(op_spans.passes_run) / n, "count"});
  m.push_back({"flow.passes_skipped", static_cast<double>(op_spans.passes_skipped) / n, "count"});
  for (Metric& q : per_layer_quality(out.quality)) m.push_back(std::move(q));

  // Human-readable split: where one traced op's time went.
  std::printf("per-layer self time of one traced op (mean of %zu):\n", out.op_ms.size());
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l)
    if (op_spans.ms[l] > 0)
      std::printf("  %-22s %10.2f ms  %5.1f%%\n", span_name(static_cast<Layer>(l)),
                  op_spans.ms[l] / n, 100.0 * op_spans.ms[l] / traced_ms);
  return out;
}

int run(const Options& o) {
  const RunOutcome out = o.trace == 1 ? run_traced(o) : run_untraced(o);
  const double p90 = tail_percentile(out.op_ms, 90.0);
  const std::string p50 = out.op_ms.empty() ? "null" : num(median(out.op_ms));
  std::printf("%s: %zu ops, op_ms_mean %s, op_ms_p50 %s", o.workload.c_str(), out.op_ms.size(),
              num(mean(out.op_ms)).c_str(), p50.c_str());
  if (!std::isnan(p90)) std::printf(", op_ms_p90 %s", num(p90).c_str());
  std::printf("\nop_ms:");
  for (const double ms : out.op_ms) std::printf(" %.1f", ms);
  std::printf("\n");

  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s, \"quality\": %s, "
      "\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"nproc\": %ld, \"threads\": %s, \"simd\": \"%s\", \"build_type\": \"%s\", "
      "\"ops\": %zu, \"op_ms_p50\": %s, \"op_ms_p90\": %s}}\n",
      out.correct ? "true" : "false", out.attempted, out.failed,
      json_object(out.metrics, true).c_str(), json_object(all_quality(out.quality), false).c_str(),
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), num(o.seconds).c_str(), o.trace,
      sysconf(_SC_NPROCESSORS_ONLN), kThreads, gnnmls::ml::to_string(gnnmls::ml::active_simd()),
      PERFBENCH_BUILD_TYPE, out.op_ms.size(), p50.c_str(),
      std::isnan(p90) ? "null" : num(p90).c_str());
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!parse(argc, argv, o)) return usage("bad arguments");
  if (!make_workload(o.workload, 0)) return usage(("unknown workload " + o.workload).c_str());
  const std::string why = refusal();
  if (!why.empty()) {
    std::fprintf(stderr, "perfbench_driver: refusing to run: %s\n", why.c_str());
    return 3;
  }
  setenv("GNNMLS_THREADS", kThreads, 1);
  gnnmls::util::set_log_level(gnnmls::util::LogLevel::kWarn);
  return run(o);
}
