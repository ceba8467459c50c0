#include "ft/error.hpp"

#include <new>

namespace gnnmls::ft {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kUnknown: return "unknown";
    case ErrorCode::kInjectedFault: return "injected-fault";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kPrecondition: return "precondition";
    case ErrorCode::kCheckFailed: return "check-failed";
    case ErrorCode::kResourceExhausted: return "resource-exhausted";
    case ErrorCode::kPassFailed: return "pass-failed";
  }
  return "?";
}

namespace {

std::string render(ErrorCode code, const std::string& pass, const std::string& stage,
                   std::uint64_t db_revision, bool retryable, const std::string& detail) {
  std::string out = "flow error [";
  out += to_string(code);
  out += "] pass=" + (pass.empty() ? "?" : pass);
  out += " stage=" + (stage.empty() ? "-" : stage);
  out += " db-rev=" + std::to_string(db_revision);
  out += retryable ? " (retryable): " : " (fatal): ";
  out += detail;
  return out;
}

}  // namespace

FlowError::FlowError(ErrorCode code, std::string pass, std::string stage,
                     std::uint64_t db_revision, bool retryable, const std::string& detail)
    : std::runtime_error(render(code, pass, stage, db_revision, retryable, detail)),
      code_(code),
      pass_(std::move(pass)),
      stage_(std::move(stage)),
      db_revision_(db_revision),
      retryable_(retryable) {}

FlowError FlowError::wrap(std::exception_ptr error, const std::string& pass,
                          const std::string& stage, std::uint64_t db_revision) {
  try {
    std::rethrow_exception(error);
  } catch (const FlowError& e) {
    // Already classified (fault plan, watchdog): keep its code/retryability,
    // fill in the boundary context where the thrower left it blank.
    return FlowError(e.code(), e.pass().empty() ? pass : e.pass(),
                     e.stage().empty() ? stage : e.stage(), db_revision, e.retryable(),
                     e.what());
  } catch (const std::bad_alloc& e) {
    return FlowError(ErrorCode::kResourceExhausted, pass, stage, db_revision,
                     /*retryable=*/false, e.what());
  } catch (const std::logic_error& e) {
    return FlowError(ErrorCode::kPrecondition, pass, stage, db_revision,
                     /*retryable=*/false, e.what());
  } catch (const std::runtime_error& e) {
    return FlowError(ErrorCode::kPassFailed, pass, stage, db_revision,
                     /*retryable=*/false, e.what());
  } catch (const std::exception& e) {
    return FlowError(ErrorCode::kUnknown, pass, stage, db_revision, /*retryable=*/false,
                     e.what());
  } catch (...) {
    return FlowError(ErrorCode::kUnknown, pass, stage, db_revision, /*retryable=*/false,
                     "non-std exception");
  }
}

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kUndeclaredWrite: return "undeclared-write";
    case ViolationKind::kUndeclaredRead: return "undeclared-read";
  }
  return "?";
}

std::string AuditViolation::line() const {
  std::string out = "audit-violation: pass=";
  out += pass.empty() ? "?" : pass;
  out += " kind=";
  out += to_string(kind);
  out += " stage=";
  out += core::to_string(stage);
  out += " rev=" + std::to_string(db_revision);
  if (!detail.empty()) out += " (" + detail + ")";
  return out;
}

namespace {

std::string render_aggregate(const std::vector<FlowError>& errors) {
  std::string out = std::to_string(errors.size()) + " pass failure(s) in wave:";
  for (const FlowError& e : errors) {
    out += "\n  ";
    out += e.what();
  }
  return out;
}

}  // namespace

AggregateFlowError::AggregateFlowError(std::vector<FlowError> errors)
    : std::runtime_error(render_aggregate(errors)), errors_(std::move(errors)) {}

bool AggregateFlowError::retryable() const {
  for (const FlowError& e : errors_)
    if (!e.retryable()) return false;
  return !errors_.empty();
}

}  // namespace gnnmls::ft
