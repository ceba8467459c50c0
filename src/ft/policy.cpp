#include "ft/policy.hpp"

#include <chrono>
#include <thread>

#include "obs/metrics.hpp"
#include "util/env.hpp"

namespace gnnmls::ft {

FtOptions resolve(const FtOptions& base) {
  using util::env::Knob;
  FtOptions out = base;
  out.max_retries = util::env::integer(Knob::kMaxRetries, base.max_retries);
  out.backoff_base_ms = util::env::real(Knob::kBackoffMs, base.backoff_base_ms);
  out.pass_budget_s = util::env::real(Knob::kPassBudgetS, base.pass_budget_s);
  return out;
}

double backoff_ms(const FtOptions& options, int attempt) {
  if (options.backoff_base_ms <= 0.0) return 0.0;
  double ms = options.backoff_base_ms;
  for (int k = 0; k < attempt; ++k) ms *= 2.0;
  return ms;
}

void apply_backoff(const FtOptions& options, int attempt) {
  const double ms = backoff_ms(options, attempt);
  if (ms <= 0.0) return;
  obs::Metrics::instance().gauge("ft.last_backoff_ms").set(ms);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace gnnmls::ft
