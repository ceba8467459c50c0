#include "obs/trace.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "util/env.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace gnnmls::obs {

namespace {

std::mutex& tracer_mutex() {
  static std::mutex mu;
  return mu;
}

// The Chrome export's tid column. Real OS thread ids where available, so the
// trace rows line up with perf/gdb output; a process-local counter elsewhere.
std::uint32_t os_tid() {
#if defined(__linux__)
  return static_cast<std::uint32_t>(::gettid());
#else
  static std::atomic<std::uint32_t> next_tid{0};
  return next_tid.fetch_add(1, std::memory_order_relaxed);
#endif
}

// Per-thread span stack (indices into Tracer::nodes_). The epoch tag lets
// reset() invalidate every thread's stack without enumerating threads.
struct ThreadState {
  std::uint64_t epoch = 0;
  std::uint32_t tid = 0;
  std::vector<int> stack;
};

ThreadState& thread_state() {
  thread_local ThreadState state{0, os_tid(), {}};
  return state;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(tracer_mutex());
  enabled_ = on;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(tracer_mutex());
  nodes_.clear();
  roots_.clear();
  events_.clear();
  dropped_ = 0;
  ++epoch_;
  base_ = std::chrono::steady_clock::now();
}

std::uint64_t Tracer::begin_span(const char* name) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(tracer_mutex());
  if (!enabled_) return 0;
  ThreadState& ts = thread_state();
  if (ts.epoch != epoch_) {
    ts.stack.clear();
    ts.epoch = epoch_;
  }
  const int parent = ts.stack.empty() ? -1 : ts.stack.back();
  int node = -1;
  for (const int c : (parent < 0) ? roots_ : nodes_[static_cast<std::size_t>(parent)].children)
    if (nodes_[static_cast<std::size_t>(c)].name == name) {
      node = c;
      break;
    }
  if (node < 0) {
    node = static_cast<int>(nodes_.size());
    Node n;
    n.name = name;
    n.parent = parent;
    n.depth = (parent < 0) ? 0 : nodes_[static_cast<std::size_t>(parent)].depth + 1;
    nodes_.push_back(std::move(n));
    // Re-fetch the sibling list: the push_back above may have reallocated
    // nodes_, so a reference taken before it would dangle.
    ((parent < 0) ? roots_ : nodes_[static_cast<std::size_t>(parent)].children).push_back(node);
  }
  ts.stack.push_back(node);
  // Token: (epoch << 32) | (node + 1). Epoch mismatch at end_span means a
  // reset() happened in between, and the index may alias a NEW node.
  return (epoch_ << 32) | static_cast<std::uint64_t>(node + 1);
}

void Tracer::end_span(std::uint64_t token, std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end) {
  if (token == 0) return;
  std::lock_guard<std::mutex> lock(tracer_mutex());
  const std::uint64_t span_epoch = token >> 32;
  const int node = static_cast<int>(token & 0xffffffffu) - 1;
  if (span_epoch != epoch_ || static_cast<std::size_t>(node) >= nodes_.size()) return;
  ThreadState& ts = thread_state();
  if (ts.epoch == epoch_ && !ts.stack.empty() && ts.stack.back() == node) ts.stack.pop_back();
  Node& n = nodes_[static_cast<std::size_t>(node)];
  const auto dur = std::chrono::duration_cast<std::chrono::nanoseconds>(end - start);
  n.count += 1;
  n.total_ns += static_cast<std::uint64_t>(dur.count() > 0 ? dur.count() : 0);
  if (events_.size() < kMaxEvents) {
    Event e;
    e.node = node;
    e.tid = ts.tid;
    const auto rel = std::chrono::duration_cast<std::chrono::nanoseconds>(start - base_);
    e.start_ns = static_cast<std::uint64_t>(rel.count() > 0 ? rel.count() : 0);
    e.dur_ns = static_cast<std::uint64_t>(dur.count() > 0 ? dur.count() : 0);
    events_.push_back(e);
  } else {
    ++dropped_;
  }
}

SpanContext Tracer::current_context() const {
  if (!enabled_) return {};
  std::lock_guard<std::mutex> lock(tracer_mutex());
  if (!enabled_) return {};
  ThreadState& ts = thread_state();
  if (ts.epoch != epoch_ || ts.stack.empty()) return {};
  return {(epoch_ << 32) | static_cast<std::uint64_t>(ts.stack.back() + 1)};
}

bool Tracer::adopt_context(SpanContext ctx) {
  if (ctx.token == 0) return false;
  std::lock_guard<std::mutex> lock(tracer_mutex());
  const std::uint64_t ctx_epoch = ctx.token >> 32;
  const int node = static_cast<int>(ctx.token & 0xffffffffu) - 1;
  if (!enabled_ || ctx_epoch != epoch_ || static_cast<std::size_t>(node) >= nodes_.size())
    return false;
  ThreadState& ts = thread_state();
  if (ts.epoch != epoch_) {
    ts.stack.clear();
    ts.epoch = epoch_;
  }
  // Adopting onto a non-empty stack would silently reparent whatever is
  // already open; that is a caller bug, so refuse instead.
  if (!ts.stack.empty()) return false;
  ts.stack.push_back(node);
  return true;
}

void Tracer::release_context(SpanContext ctx) {
  std::lock_guard<std::mutex> lock(tracer_mutex());
  const std::uint64_t ctx_epoch = ctx.token >> 32;
  const int node = static_cast<int>(ctx.token & 0xffffffffu) - 1;
  if (ctx_epoch != epoch_) return;
  ThreadState& ts = thread_state();
  if (ts.epoch == epoch_ && !ts.stack.empty() && ts.stack.back() == node) ts.stack.pop_back();
}

std::vector<SpanStat> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(tracer_mutex());
  std::vector<SpanStat> out;
  out.reserve(nodes_.size());
  // Depth-first over the forest; remap node ids to snapshot indices.
  std::vector<int> remap(nodes_.size(), -1);
  std::vector<int> work(roots_.rbegin(), roots_.rend());
  while (!work.empty()) {
    const int id = work.back();
    work.pop_back();
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    SpanStat s;
    s.name = n.name;
    s.parent = (n.parent < 0) ? -1 : remap[static_cast<std::size_t>(n.parent)];
    s.depth = n.depth;
    s.count = n.count;
    s.total_s = static_cast<double>(n.total_ns) * 1e-9;
    std::uint64_t child_ns = 0;
    for (const int c : n.children) child_ns += nodes_[static_cast<std::size_t>(c)].total_ns;
    s.self_s = static_cast<double>(n.total_ns > child_ns ? n.total_ns - child_ns : 0) * 1e-9;
    remap[static_cast<std::size_t>(id)] = static_cast<int>(out.size());
    out.push_back(std::move(s));
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) work.push_back(*it);
  }
  return out;
}

double Tracer::total_seconds(std::string_view name) const {
  std::lock_guard<std::mutex> lock(tracer_mutex());
  std::uint64_t ns = 0;
  for (const Node& n : nodes_)
    if (n.name == name) ns += n.total_ns;
  return static_cast<double>(ns) * 1e-9;
}

std::size_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(tracer_mutex());
  return dropped_;
}

std::string Tracer::profile_table() const {
  const std::vector<SpanStat> stats = snapshot();
  double root_total = 0.0;
  for (const SpanStat& s : stats)
    if (s.parent < 0) root_total += s.total_s;
  util::Table table({"span", "calls", "total(ms)", "self(ms)", "%"});
  for (const SpanStat& s : stats) {
    table.add_row({std::string(static_cast<std::size_t>(s.depth) * 2, ' ') + s.name,
                   util::fmt_count(static_cast<long long>(s.count)),
                   util::fmt_fixed(s.total_s * 1e3, 2), util::fmt_fixed(s.self_s * 1e3, 2),
                   util::fmt_fixed(root_total > 0.0 ? s.total_s / root_total * 100.0 : 0.0, 1)});
  }
  return table.render();
}

std::string Tracer::chrome_trace_json() const {
  std::lock_guard<std::mutex> lock(tracer_mutex());
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[96];
  bool first = true;
  for (const Event& e : events_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    util::append_json_escaped(out, nodes_[static_cast<std::size_t>(e.node)].name);
    out += "\",\"cat\":\"gnnmls\",\"ph\":\"X\",\"pid\":0";
    // Timestamps/durations in microseconds, the trace-event unit.
    std::snprintf(buf, sizeof buf, ",\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}", e.tid,
                  static_cast<double>(e.start_ns) * 1e-3, static_cast<double>(e.dur_ns) * 1e-3);
    out += buf;
  }
  out += "]}";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    util::log_error("obs: cannot write trace to ", path);
    return false;
  }
  const std::size_t wrote = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return wrote == json.size();
}

Span::Span(const char* name) : start_(std::chrono::steady_clock::now()) {
  token_ = Tracer::instance().begin_span(name);
}

void Span::end() {
  if (final_s_ >= 0.0) return;
  const auto now = std::chrono::steady_clock::now();
  final_s_ = std::chrono::duration<double>(now - start_).count();
  Tracer::instance().end_span(token_, start_, now);
}

double Span::seconds() const {
  if (final_s_ >= 0.0) return final_s_;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
}

bool init_from_env() {
  static std::once_flag once;
  static bool active = false;
  std::call_once(once, [] {
    static const std::string out_path =  // outlives the atexit handler
        util::env::str(util::env::Knob::kTrace);
    if (out_path.empty()) return;
    Tracer::instance().set_enabled(true);
    std::atexit([] {
      if (Tracer::instance().write_chrome_trace(out_path))
        std::fprintf(stderr, "[obs] wrote Chrome trace to %s\n", out_path.c_str());
    });
    active = true;
  });
  return active;
}

}  // namespace gnnmls::obs
