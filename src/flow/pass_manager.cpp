#include "flow/pass_manager.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "audit/contract_audit.hpp"
#include "core/access_audit.hpp"
#include "flow/executor.hpp"
#include "ft/blackbox.hpp"
#include "ft/error.hpp"
#include "ft/policy.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace gnnmls::flow {

namespace {

bool intersects(const std::vector<core::Stage>& a, const std::vector<core::Stage>& b) {
  for (const core::Stage x : a)
    for (const core::Stage y : b)
      if (x == y) return true;
  return false;
}

// Appends the wave's violations to the report, deduplicating by
// (kind, pass, stage): a retried wave re-observes the same mis-declaration,
// which is one finding, not one per attempt. Counters move only on insert.
void record_violations(std::vector<ft::AuditViolation> found, RunReport& report,
                       FlowMetrics& metrics) {
  for (ft::AuditViolation& v : found) {
    bool known = false;
    for (const ft::AuditViolation& seen : report.audit)
      known = known || (seen.kind == v.kind && seen.pass == v.pass && seen.stage == v.stage);
    if (known) continue;
    util::log_warn("flow: ", v.line());
    static obs::Counter& writes =
        obs::Metrics::instance().counter("ft.audit.undeclared_writes");
    static obs::Counter& reads =
        obs::Metrics::instance().counter("ft.audit.undeclared_reads");
    (v.kind == ft::ViolationKind::kUndeclaredWrite ? writes : reads).add(1);
    ++metrics.contract_violations;
    report.audit.push_back(std::move(v));
  }
}

}  // namespace

bool RunReport::ran(std::string_view name) const { return find(name) != nullptr; }

const PassExecution* RunReport::find(std::string_view name) const {
  for (const PassExecution& e : executed)
    if (e.name == name) return &e;
  return nullptr;
}

bool PassManager::conflicts(const Pass& a, const Pass& b) {
  const std::vector<core::Stage> ar = a.reads(), aw = a.writes();
  const std::vector<core::Stage> br = b.reads(), bw = b.writes();
  return intersects(aw, br) ||  // read-after-write
         intersects(ar, bw) ||  // write-after-read
         intersects(aw, bw);    // write-after-write
}

std::uint64_t PassManager::fingerprint_of(const Pass& pass, const core::DesignDB& db) const {
  // FNV-1a over the read-stage revisions plus the pass's own contribution.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const core::Stage s : pass.reads()) mix(db.revision(s));
  mix(pass.fingerprint());
  return h;
}

bool PassManager::audit_enabled(const FlowConfig& config) {
  // Read once per run() on the dispatch thread, same discipline as
  // ft::resolve / Executor::threads_from_env.
  return util::env::flag(util::env::Knob::kAudit, config.audit);
}

bool PassManager::wants_run(const Pass& pass, const core::DesignDB& db) const {
  if (!pass.needs_run(db)) return false;
  if (!pass.writes().empty()) return true;
  // Pure-read pass: run once per distinct view of its inputs.
  const auto it = ledger_.find(pass.name());
  return it == ledger_.end() || it->second != fingerprint_of(pass, db);
}

const RunReport& PassManager::run(const std::vector<Pass*>& pipeline, PassContext& ctx) {
  report_ = RunReport{};
  const std::size_t n = pipeline.size();
  std::vector<char> done(n, 0);
  const Executor exec(Executor::threads_from_env());
  const ft::FtOptions ft = ft::resolve(ctx.config.ft);
  const bool audit = audit_enabled(ctx.config);

  for (;;) {
    // Which passes currently want to run? (Freshness changes wave to wave:
    // a pass that was fresh at entry goes stale once an upstream pass
    // recommits the stage it reads.)
    std::vector<char> wants(n, 0);
    for (std::size_t i = 0; i < n; ++i)
      wants[i] = done[i] ? 0 : static_cast<char>(wants_run(*pipeline[i], ctx.db));

    // The wave: every wanting pass with no wanting conflicting predecessor.
    std::vector<std::size_t> wave;
    for (std::size_t i = 0; i < n; ++i) {
      if (!wants[i]) continue;
      bool blocked = false;
      for (std::size_t j = 0; j < i && !blocked; ++j)
        blocked = wants[j] && conflicts(*pipeline[j], *pipeline[i]);
      if (!blocked) wave.push_back(i);
    }
    if (wave.empty()) break;

    // One aggregation node per wave: pass spans — on the dispatch thread and
    // (via the Executor's ContextGuard) on pool threads alike — nest under
    // it instead of under flow.evaluate directly or as orphan roots.
    obs::Span wave_span("flow.wave");

    // Transaction scope: the union of the wave's write stages. Snapshotting
    // once per wave (not per pass) keeps the copy count low and is exactly
    // as safe — a failed wave is rolled back whole, including the writes of
    // its passes that succeeded, because their ledger/done marks are only
    // taken on wave success.
    std::vector<core::Stage> wave_writes;
    for (const std::size_t i : wave)
      for (const core::Stage s : pipeline[i]->writes()) {
        bool seen = false;
        for (const core::Stage w : wave_writes) seen = seen || w == s;
        if (!seen) wave_writes.push_back(s);
      }
    // Pre-wave revisions of the declared write stages, so the success path
    // below can renumber exactly the stages this wave re-committed (a
    // declared-but-skipped write keeps its old tag and must not be touched).
    std::vector<std::uint64_t> pre_revs;
    pre_revs.reserve(wave_writes.size());
    for (const core::Stage s : wave_writes)
      pre_revs.push_back(ctx.db.tag(s).revision);
    std::optional<core::DesignDB::Snapshot> snap;
    std::uint64_t pre_fp = 0;
    if (ft.transactional) {
      // Charged to tx_s (and the flow.tx span): this is manager overhead,
      // not any pass's work, but it is real wall-clock the stage breakdown
      // must account for — the snapshot scales with the routing state.
      GNNMLS_SPAN("flow.tx");
      const auto tx0 = std::chrono::steady_clock::now();
      snap = ctx.db.snapshot(wave_writes);
      pre_fp = ctx.db.state_fingerprint();
      ctx.metrics.tx_s +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - tx0).count();
      static obs::Histogram& snap_bytes =
          obs::Metrics::instance().histogram("flow.snapshot_bytes");
      snap_bytes.observe(static_cast<double>(snap->approx_bytes()));
    }

    std::size_t attempt = 0;
    for (;;) {
      std::vector<double> seconds(wave.size(), 0.0);
      // One recorder per pass execution, indexed like `seconds`: distinct
      // slots, so concurrent passes never share recorder state. The netlist
      // revision is captured on the dispatch thread, OUTSIDE any scope
      // (design() must not charge the manager's own peek to a pass), and
      // re-captured per attempt — a rollback restores the pre-wave netlist.
      std::vector<core::AccessRecorder> recorders(audit ? wave.size() : 0);
      const std::uint64_t nl_rev_before =
          audit ? ctx.db.design().nl.revision() : 0;
      std::vector<std::function<void()>> tasks;
      tasks.reserve(wave.size());
      const std::size_t wave_no = report_.waves;
      for (std::size_t k = 0; k < wave.size(); ++k) {
        Pass* pass = pipeline[wave[k]];
        tasks.push_back([pass, &ctx, &seconds, k, &ft, audit, &recorders, wave_no, attempt] {
          obs::FlightRecorder::instance().record(obs::EventKind::kPassBegin, pass->name(),
                                                 wave_no, attempt);
          const auto t0 = std::chrono::steady_clock::now();
          for (const core::Stage s : pass->writes()) ctx.db.begin_write(s);
          {
            // The scope covers only the pass body — not the begin/end_write
            // brackets — and unbinds even when the pass throws, leaving the
            // partial access trace for the post-wave diff.
            core::AuditScope scope(audit ? &recorders[k] : nullptr);
            pass->run(ctx);
          }
          for (const core::Stage s : pass->writes()) ctx.db.end_write(s);
          seconds[k] =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
          obs::FlightRecorder::instance().record(
              obs::EventKind::kPassEnd, pass->name(), wave_no,
              static_cast<std::uint64_t>(seconds[k] * 1e9));
          // Cooperative watchdog: passes cannot be killed mid-flight
          // portably, so budget overruns are detected on return and
          // converted into retryable timeouts (the retry observes the
          // rolled-back — smaller or warmer — state, and may well fit).
          if (ft.pass_budget_s > 0.0 && seconds[k] > ft.pass_budget_s) {
            static obs::Counter& timeouts = obs::Metrics::instance().counter("ft.timeouts");
            timeouts.add(1);
            throw ft::FlowError(
                ft::ErrorCode::kTimeout, pass->name(),
                pass->writes().empty() ? "" : core::to_string(pass->writes().front()),
                ctx.db.revision(core::Stage::kNetlist), /*retryable=*/true,
                "pass ran " + std::to_string(seconds[k]) + " s, budget " +
                    std::to_string(ft.pass_budget_s) + " s");
          }
        });
      }

      const std::vector<std::exception_ptr> errors = exec.run_collect(tasks);

      if (audit) {
        // Diff BEFORE the success/failure fork so findings from a wave that
        // is about to be rolled back (and maybe retried) are kept.
        const bool nl_moved = ctx.db.design().nl.revision() != nl_rev_before;
        const std::uint64_t db_rev = ctx.db.revision(core::Stage::kNetlist);
        std::vector<ft::AuditViolation> found;
        for (std::size_t k = 0; k < wave.size(); ++k) {
          const Pass& pass = *pipeline[wave[k]];
          ++report_.audited;
          std::vector<ft::AuditViolation> vs = audit::diff_contract(
              pass.name(), pass.reads(), pass.writes(), recorders[k], nl_moved, db_rev);
          found.insert(found.end(), std::make_move_iterator(vs.begin()),
                       std::make_move_iterator(vs.end()));
        }
        static obs::Counter& audited = obs::Metrics::instance().counter("ft.audit.passes");
        audited.add(wave.size());
        record_violations(std::move(found), report_, ctx.metrics);
      }

      std::vector<ft::FlowError> failures;
      for (std::size_t k = 0; k < wave.size(); ++k) {
        if (!errors[k]) continue;
        Pass* pass = pipeline[wave[k]];
        failures.push_back(ft::FlowError::wrap(
            errors[k], pass->name(),
            pass->writes().empty() ? "" : core::to_string(pass->writes().front()),
            ctx.db.revision(core::Stage::kNetlist)));
      }

      if (failures.empty()) {
        // Passes that ran concurrently drew their stage revisions from the
        // shared counter in completion order, which permutes with thread
        // timing. Renormalize the stages this wave actually re-committed
        // here, at the wave's serial success point and before the ledger
        // fingerprints below hash them, so the DB state is invariant under
        // GNNMLS_THREADS.
        std::vector<core::Stage> committed;
        for (std::size_t w = 0; w < wave_writes.size(); ++w)
          if (ctx.db.tag(wave_writes[w]).revision != pre_revs[w])
            committed.push_back(wave_writes[w]);
        ctx.db.renumber_stages(committed);
        for (std::size_t k = 0; k < wave.size(); ++k) {
          const std::size_t i = wave[k];
          done[i] = 1;
          ledger_[pipeline[i]->name()] = fingerprint_of(*pipeline[i], ctx.db);
          report_.executed.push_back(
              PassExecution{pipeline[i]->name(), seconds[k], report_.waves});
          util::log_debug("flow: pass ", pipeline[i]->name(), " ran in wave ", report_.waves,
                          " (", seconds[k] * 1e3, " ms)");
        }
        break;
      }

      // Wave failed. Tag the failures for the trace/metrics, roll back, and
      // decide between retry and giving up.
      static obs::Counter& fail_counter = obs::Metrics::instance().counter("ft.failures");
      fail_counter.add(failures.size());
      for (const ft::FlowError& e : failures) {
        // An (instant) span per failure marks WHERE in the timeline the
        // recovery machinery engaged; the Chrome trace shows it nested under
        // whatever flow span is open.
        obs::Span mark(("ft.fail." + e.pass()).c_str());
        obs::FlightRecorder::instance().record(obs::EventKind::kPassFail, e.pass(), wave_no,
                                               static_cast<std::uint64_t>(e.code()));
        util::log_warn("flow: pass ", e.pass(), " failed (", ft::to_string(e.code()),
                       e.retryable() ? ", retryable): " : ", fatal): ", e.what());
      }
      // The black box: failure context + the recorder tail, written before
      // rollback mutates anything so the dump shows the state as it failed.
      const std::string dumped = ft::dump_black_box(failures, wave_no, attempt);
      if (!dumped.empty())
        util::log_warn("flow: flight-recorder dump written to ", dumped);

      if (!ft.transactional) {
        // Legacy mode: no rollback, rethrow the lowest-indexed failure
        // unwrapped... except it is already wrapped; keep pre-FT observable
        // behavior by rethrowing the original exception_ptr.
        for (const std::exception_ptr& e : errors)
          if (e) std::rethrow_exception(e);
      }

      const auto tx0 = std::chrono::steady_clock::now();
      ctx.db.restore(*snap);
      const std::uint64_t post_fp = ctx.db.state_fingerprint();
      ctx.metrics.tx_s +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - tx0).count();
      static obs::Histogram& restore_bytes =
          obs::Metrics::instance().histogram("flow.restore_bytes");
      restore_bytes.observe(static_cast<double>(snap->approx_bytes()));
      obs::FlightRecorder::instance().record(obs::EventKind::kRollback, failures.front().pass(),
                                             wave_no, post_fp);
      RollbackRecord rb;
      rb.wave = report_.waves;
      for (const ft::FlowError& e : failures) rb.failed.push_back(e.pass());
      rb.pre_fp = pre_fp;
      rb.post_fp = post_fp;
      rb.attempt = attempt;
      report_.rollbacks.push_back(std::move(rb));
      static obs::Counter& rollbacks = obs::Metrics::instance().counter("ft.rollbacks");
      rollbacks.add(1);
      if (post_fp != pre_fp)
        util::log_warn("flow: rollback of wave ", report_.waves,
                       " did not restore the pre-wave fingerprint (", pre_fp, " -> ", post_fp,
                       ")");

      bool all_retryable = true;
      for (const ft::FlowError& e : failures) all_retryable = all_retryable && e.retryable();
      if (all_retryable && attempt < static_cast<std::size_t>(std::max(0, ft.max_retries))) {
        ft::apply_backoff(ft, static_cast<int>(attempt));
        ++attempt;
        ++report_.retries;
        ++ctx.metrics.retries;
        static obs::Counter& retries = obs::Metrics::instance().counter("ft.retries");
        retries.add(1);
        obs::FlightRecorder::instance().record(obs::EventKind::kRetry, failures.front().pass(),
                                               wave_no, attempt);
        util::log_warn("flow: retrying wave ", report_.waves, " (attempt ", attempt + 1, " of ",
                       ft.max_retries + 1, ")");
        continue;
      }

      for (const ft::FlowError& e : failures)
        report_.failed.push_back(
            FailureRecord{e.pass(), ft::to_string(e.code()), e.what(), e.retryable()});
      throw ft::AggregateFlowError(std::move(failures));
    }
    ++report_.waves;
  }

  for (std::size_t i = 0; i < n; ++i)
    if (!done[i]) report_.skipped.push_back(pipeline[i]->name());
  return report_;
}

}  // namespace gnnmls::flow
