#include "flow/executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "obs/trace.hpp"
#include "util/env.hpp"

namespace gnnmls::flow {

Executor::Executor(int threads) : threads_(threads < 1 ? 1 : threads) {}

int Executor::threads_from_env() {
  return util::env::integer(util::env::Knob::kThreads, 1);
}

std::vector<std::exception_ptr> Executor::run_collect(
    const std::vector<std::function<void()>>& tasks) const {
  std::vector<std::exception_ptr> errors(tasks.size());
  if (tasks.empty()) return errors;
  if (threads_ == 1 || tasks.size() == 1) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      try {
        tasks[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
    return errors;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) return;
      try {
        tasks[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  // Spans opened inside tasks on pool threads adopt the dispatching thread's
  // innermost span as parent (e.g. flow.wave), instead of becoming orphan
  // roots in the Chrome export. The calling thread's own worker() pass needs
  // no guard: its span stack already holds the parent.
  const obs::SpanContext span_ctx = obs::Tracer::instance().current_context();
  const std::size_t nthreads =
      std::min<std::size_t>(static_cast<std::size_t>(threads_), tasks.size());
  std::vector<std::thread> pool;
  pool.reserve(nthreads - 1);
  for (std::size_t t = 1; t < nthreads; ++t)
    pool.emplace_back([&worker, span_ctx] {
      obs::ContextGuard guard(span_ctx);
      worker();
    });
  worker();  // the calling thread pulls tasks too
  for (std::thread& t : pool) t.join();
  return errors;
}

void Executor::run(const std::vector<std::function<void()>>& tasks) const {
  for (const std::exception_ptr& e : run_collect(tasks))
    if (e) std::rethrow_exception(e);
}

}  // namespace gnnmls::flow
