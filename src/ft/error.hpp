// Structured error taxonomy for the flow pipeline.
//
// Every exception that crosses a pass boundary is wrapped into a FlowError:
// a stable error code, the failing pass, the stage it was writing, the DB
// revision at failure time, and — the field the recovery policy keys on —
// whether the failure is retryable. Transient failures (injected faults,
// watchdog timeouts) are; broken invariants (std::logic_error) and failed
// integrity checks are not, because re-running the same pass on the same
// state would fail the same way.
//
// A wave can fail in more than one pass at once; AggregateFlowError carries
// every FlowError from the wave so multi-failure waves are not silently
// truncated to their lowest-indexed member.
#pragma once

#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/stage.hpp"

namespace gnnmls::ft {

enum class ErrorCode : std::uint8_t {
  kUnknown = 0,        // unrecognized exception type
  kInjectedFault,      // ft::FaultPlan trip (chaos testing)
  kTimeout,            // per-pass wall-clock budget overrun
  kPrecondition,       // std::logic_error: a stage invariant was violated
  kCheckFailed,        // strict design-integrity checks found errors
  kResourceExhausted,  // std::bad_alloc
  kPassFailed,         // std::runtime_error from a pass body
};

const char* to_string(ErrorCode code);

class FlowError : public std::runtime_error {
 public:
  FlowError(ErrorCode code, std::string pass, std::string stage, std::uint64_t db_revision,
            bool retryable, const std::string& detail);

  ErrorCode code() const { return code_; }
  const std::string& pass() const { return pass_; }
  const std::string& stage() const { return stage_; }
  std::uint64_t db_revision() const { return db_revision_; }
  bool retryable() const { return retryable_; }

  // Classifies an arbitrary in-flight exception into the taxonomy. A nested
  // FlowError passes through with its pass/stage context filled in if empty;
  // everything else maps per the table above (see error.cpp).
  static FlowError wrap(std::exception_ptr error, const std::string& pass,
                        const std::string& stage, std::uint64_t db_revision);

 private:
  ErrorCode code_;
  std::string pass_;
  std::string stage_;
  std::uint64_t db_revision_ = 0;
  bool retryable_ = false;
};

// ---- contract-audit violations (src/audit/ layer 2) ------------------------
// A pass touched a DesignDB stage outside its declared read/write sets,
// observed by the GNNMLS_AUDIT=1 access recorder. Not an exception: the run
// completes (the violation may well be benign today), but every scheduling
// and rollback guarantee derived from the declarations is void for that
// stage, so the violations are carried on the RunReport, counted under
// ft.audit.*, and fail the lint gate.
enum class ViolationKind : std::uint8_t {
  kUndeclaredWrite = 0,  // wrote a stage missing from writes()
  kUndeclaredRead,       // read a stage missing from reads() and writes()
};

const char* to_string(ViolationKind kind);

struct AuditViolation {
  ViolationKind kind = ViolationKind::kUndeclaredWrite;
  std::string pass;
  core::Stage stage = core::Stage::kNetlist;
  std::uint64_t db_revision = 0;  // netlist revision when the wave drained
  std::string detail;

  // One greppable line: "audit-violation: pass=... kind=... stage=... rev=..."
  std::string line() const;
};

// Every failure of one pass wave, in pipeline order. what() renders a
// one-line summary per member error.
class AggregateFlowError : public std::runtime_error {
 public:
  explicit AggregateFlowError(std::vector<FlowError> errors);

  const std::vector<FlowError>& errors() const { return errors_; }
  // True when every member failure is retryable (the recovery policy gave up
  // on attempts, not on principle).
  bool retryable() const;

 private:
  std::vector<FlowError> errors_;
};

}  // namespace gnnmls::ft
