#include "util/env.hpp"

#include <cstdlib>
#include <cstring>
#include <iterator>

namespace gnnmls::util::env {

namespace {

constexpr KnobInfo kKnobs[] = {
    {Knob::kThreads, "GNNMLS_THREADS", "1",
     "worker threads: pass waves, routing shards, inference", 1.0, 64.0},
    {Knob::kAudit, "GNNMLS_AUDIT", "off", "1/on runs the DesignDB access audit like --audit"},
    {Knob::kFt, "GNNMLS_FT", "on", "0/off disables transactional rollback and retries"},
    {Knob::kMaxRetries, "GNNMLS_MAX_RETRIES", "2", "retry budget per failed wave", 0.0,
     std::numeric_limits<int>::max()},
    {Knob::kBackoffMs, "GNNMLS_BACKOFF_MS", "0", "retry backoff base in ms (x * 2^attempt)"},
    {Knob::kPassBudgetS, "GNNMLS_PASS_BUDGET_S", "0",
     "per-pass wall-clock budget in s (0 = watchdog off)"},
    {Knob::kFault, "GNNMLS_FAULT", "", "S[:n][,...] arms fault sites like --inject-flow"},
    {Knob::kFlightOut, "GNNMLS_FLIGHT_OUT", "flight_recorder.json",
     "flight-recorder dump path (\"\" or off disables)"},
    {Knob::kTrace, "GNNMLS_TRACE", "", "F writes a Chrome trace of the whole run to F"},
    {Knob::kLogLevel, "GNNMLS_LOG_LEVEL", "info", "debug | info | warn | error | off"},
    {Knob::kSimd, "GNNMLS_SIMD", "", "scalar | avx2 overrides the CPU-based kernel pick"},
    {Knob::kGitRev, "GNNMLS_GIT_REV", "unknown", "revision stamped on perf-ledger records"},
};

constexpr bool in_knob_order() {
  for (std::size_t i = 0; i < std::size(kKnobs); ++i)
    if (static_cast<std::size_t>(kKnobs[i].knob) != i) return false;
  return true;
}
static_assert(in_knob_order(), "kKnobs rows must follow the Knob enum");

// The one getenv in the tree. getenv races only a concurrent setenv: the
// library never calls setenv, and the benches and tests that do call it
// between flow runs.
const char* raw(Knob knob) {
  return std::getenv(info(knob).name);  // NOLINT(concurrency-mt-unsafe)
}

template <typename T>
T bounded(Knob knob, T v, T fallback) {
  const KnobInfo& k = info(knob);
  if (!(v >= k.lo)) return fallback;  // also NaN from atof
  if (v > k.hi) return static_cast<T>(k.hi);
  return v;
}

}  // namespace

std::span<const KnobInfo> knobs() { return kKnobs; }

const KnobInfo& info(Knob knob) { return kKnobs[static_cast<std::size_t>(knob)]; }

int integer(Knob knob, int fallback) {
  const char* v = raw(knob);
  if (v == nullptr || *v == '\0') return fallback;
  return bounded(knob, std::atoi(v), fallback);
}

double real(Knob knob, double fallback) {
  const char* v = raw(knob);
  if (v == nullptr || *v == '\0') return fallback;
  return bounded(knob, std::atof(v), fallback);
}

bool flag(Knob knob, bool fallback) {
  const char* v = raw(knob);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strcmp(v, "0") != 0 && std::strcmp(v, "off") != 0;
}

std::optional<std::string> value(Knob knob) {
  const char* v = raw(knob);
  return v != nullptr ? std::optional<std::string>(v) : std::nullopt;
}

std::string str(Knob knob) {
  const char* v = raw(knob);
  return v != nullptr ? v : info(knob).default_value;
}

std::string git_rev() {
  const char* v = raw(Knob::kGitRev);
  return v != nullptr && *v != '\0' ? v : info(Knob::kGitRev).default_value;
}

std::string effective_env() {
  std::string out;
  for (const KnobInfo& k : kKnobs) {
    const std::optional<std::string> v = value(k.knob);
    if (!v) continue;
    if (!out.empty()) out += ' ';
    out += std::string(k.name) + "=" + *v;
  }
  return out.empty() ? "(none)" : out;
}

}  // namespace gnnmls::util::env
