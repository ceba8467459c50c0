// The GNNMLS_* environment knobs: one table, one parser.
//
// Every runtime knob is declared once in the table behind knobs() (name,
// default, one-line help) and read through the typed accessors below; no
// other file in src/, tools/, bench/ or examples/ reads the environment
// (scripts/ci.sh's knob gate enforces it). Accessors read the environment
// on every call, so each knob takes effect exactly when its caller reads
// it: GNNMLS_THREADS, GNNMLS_AUDIT and the recovery-policy knobs per flow
// run (benches and tests setenv between runs); GNNMLS_LOG_LEVEL,
// GNNMLS_SIMD, GNNMLS_TRACE and GNNMLS_FAULT once, at their owner's first
// touch.
//
// gnnmls_lint --help prints the table; --profile prints effective_env().
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>

namespace gnnmls::util::env {

enum class Knob : std::uint8_t {
  kThreads, kAudit, kFt, kMaxRetries, kBackoffMs, kPassBudgetS,
  kFault, kFlightOut, kTrace, kLogLevel, kSimd, kGitRev,
};

struct KnobInfo {
  Knob knob;
  const char* name;
  // Default as printed by --help; str() returns it for an unset string knob.
  const char* default_value;
  const char* help;
  // Numeric knobs only: a value below `lo` falls back, one above `hi` clamps.
  double lo = 0.0;
  double hi = std::numeric_limits<double>::max();
};

// The table, in Knob order.
std::span<const KnobInfo> knobs();
const KnobInfo& info(Knob knob);

// Integer knob: `fallback` when unset or empty; otherwise atoi of the value,
// with a result below lo replaced by `fallback` and one above hi clamped to
// hi (so a malformed value, which atoi reads as 0, falls back when lo > 0).
int integer(Knob knob, int fallback);

// Real-valued knob: as integer(), parsed with atof.
double real(Knob knob, double fallback);

// On/off knob: `fallback` when unset or empty, false for "0" or "off", true
// for anything else.
bool flag(Knob knob, bool fallback);

// The raw value, nullopt when unset.
std::optional<std::string> value(Knob knob);

// String knob: the value when set (even to ""), the table default otherwise.
std::string str(Knob knob);

// The ledger revision stamp: GNNMLS_GIT_REV, or "unknown" when unset or empty.
std::string git_rev();

// "NAME=value ..." over every knob that is set, or "(none)".
std::string effective_env();

}  // namespace gnnmls::util::env
