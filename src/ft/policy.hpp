// Recovery policy knobs for transactional pass execution.
//
// The PassManager consults one FtOptions per run: how many times an
// all-retryable wave failure is retried (a failed wave is always rolled
// back), the deterministic backoff between attempts, and the per-pass
// wall-clock budget the watchdog converts into retryable timeouts. The
// struct lives here (not in flow/types.hpp) so low-level layers can reason
// about policies without pulling in the flow configuration; FlowConfig
// embeds one.
//
// Env overrides (util/env.hpp; resolved per run, so a wrapper script can
// harden or relax a flow without a recompile): GNNMLS_MAX_RETRIES,
// GNNMLS_BACKOFF_MS and GNNMLS_PASS_BUDGET_S override the fields below.
#pragma once

#include <cstdint>

namespace gnnmls::ft {

struct FtOptions {
  // How many times a wave whose every failure is retryable re-runs before
  // the AggregateFlowError propagates.
  int max_retries = 2;
  // Deterministic exponential backoff between attempts: attempt k sleeps
  // backoff_base_ms * 2^k. 0 (the default) retries immediately — tests and
  // CI stay fast; batch drivers set it for flaky-resource scenarios.
  double backoff_base_ms = 0.0;
  // Per-pass wall-clock budget in seconds; a pass exceeding it fails with a
  // retryable kTimeout after it returns (cooperative watchdog — passes are
  // not killed mid-flight). 0 disables.
  double pass_budget_s = 0.0;
};

// `base` with the GNNMLS_* env overrides applied.
FtOptions resolve(const FtOptions& base);

// Deterministic backoff for attempt k (0-based), in milliseconds.
double backoff_ms(const FtOptions& options, int attempt);

// Sleeps for backoff_ms(options, attempt) and records it in the metrics
// registry; no-op when the backoff is zero.
void apply_backoff(const FtOptions& options, int attempt);

}  // namespace gnnmls::ft
