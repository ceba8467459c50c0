#include "core/design_db.hpp"

#include "core/fingerprint.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace gnnmls::core {

DesignDB::DesignDB(netlist::Design design, const tech::Tech3D& tech)
    : design_(std::move(design)), tech_(&tech) {}

std::uint64_t DesignDB::revision(Stage s) const {
  // The +1 keeps an untouched netlist (revision 0 in the journal) distinct
  // from the "never built" tag value 0.
  if (s == Stage::kNetlist) return design_.nl.revision() + 1;
  return tag(s).revision;
}

bool DesignDB::built(Stage s) const {
  if (s == Stage::kNetlist) return true;
  return tag(s).revision != 0;
}

bool DesignDB::fresh(Stage s) const {
  if (s == Stage::kNetlist) return true;
  if (!built(s)) return false;
  const Stage up = upstream_of(s);
  if (tag(s).built_from != revision(up)) return false;
  if (s == Stage::kRoutes && !dirty_.empty()) return false;
  return fresh(up);
}

std::uint64_t DesignDB::commit(Stage s) {
  if (s == Stage::kNetlist)
    throw std::logic_error("the netlist stage versions itself (mutation journal)");
  audit_note_write(s);
  StageTag& t = tags_[static_cast<std::size_t>(s)];
  t.revision = counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  t.built_from = revision(upstream_of(s));
  if (s == Stage::kRoutes) {
    dirty_.clear();
    journal_cursor_ = design_.nl.journal_size();
  }
  obs::FlightRecorder::instance().record(obs::EventKind::kCommit, to_string(s), t.revision);
  return t.revision;
}

void DesignDB::renumber_stages(std::span<const Stage> stages) {
  // Stages from the wave that actually committed, in canonical enum order.
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const Stage s = static_cast<Stage>(i);
    if (s == Stage::kNetlist) continue;
    if (tags_[i].revision == 0) continue;
    if (std::find(stages.begin(), stages.end(), s) == stages.end()) continue;
    idx.push_back(i);
  }
  if (idx.size() < 2) return;  // a single commit cannot permute

  // The wave's revision values, detached from whichever completion order the
  // executor threads happened to produce, reassigned ascending in stage
  // order. The value *set* is unchanged, so the counter stays consistent.
  std::vector<std::uint64_t> old_rev(kNumStages, 0);
  std::vector<std::uint64_t> values;
  values.reserve(idx.size());
  for (const std::size_t i : idx) {
    old_rev[i] = tags_[i].revision;
    values.push_back(tags_[i].revision);
  }
  std::sort(values.begin(), values.end());
  std::vector<std::uint64_t> new_rev(kNumStages, 0);
  for (std::size_t k = 0; k < idx.size(); ++k) {
    new_rev[idx[k]] = values[k];
    tags_[idx[k]].revision = values[k];
  }

  // Patch built_from links that referenced a renumbered upstream by its old
  // value — e.g. a pass committing placement then routes in the same wave.
  // Revisions are globally unique (one counter), so an exact match on the
  // old value is exactly an intra-wave dependency, never a coincidence.
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const Stage s = static_cast<Stage>(i);
    if (s == Stage::kNetlist || tags_[i].revision == 0) continue;
    const Stage up = upstream_of(s);
    if (up == s || up == Stage::kNetlist) continue;
    const std::size_t u = static_cast<std::size_t>(up);
    if (old_rev[u] != 0 && tags_[i].built_from == old_rev[u])
      tags_[i].built_from = new_rev[u];
  }
}

void DesignDB::invalidate(Stage s) {
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const Stage candidate = static_cast<Stage>(i);
    if (candidate == Stage::kNetlist) continue;
    // Invalidate `candidate` when s lies on its upstream chain (or is it).
    Stage walk = candidate;
    while (true) {
      if (walk == s) {
        // A never-built stage's invalidation is a semantic no-op; only
        // actually-dropped artifacts count as writes for the audit layer.
        if (tags_[i].revision != 0) audit_note_write(candidate);
        tags_[i] = StageTag{};
        break;
      }
      const Stage up = upstream_of(walk);
      if (up == walk) break;
      walk = up;
    }
  }
}

void DesignDB::touch_net(netlist::Id net) {
  // Dirtying a net revokes routing freshness: a kRoutes write.
  audit_note_write(Stage::kRoutes);
  const auto it = std::lower_bound(dirty_.begin(), dirty_.end(), net);
  if (it != dirty_.end() && *it == net) return;
  dirty_.insert(it, net);
}

void DesignDB::touch_nets(std::span<const netlist::Id> nets) {
  for (const netlist::Id n : nets) touch_net(n);
}

void DesignDB::touch_journal_since(std::size_t mark) {
  const std::span<const netlist::Id> journal = design_.nl.journal();
  if (mark > journal.size()) return;
  touch_nets(journal.subspan(mark));
}

void DesignDB::absorb_journal() {
  audit_note_read(Stage::kNetlist);
  const std::size_t size = design_.nl.journal_size();
  if (journal_cursor_ >= size) return;
  touch_journal_since(journal_cursor_);
  journal_cursor_ = size;
  // Mutators place their own cells (see header); declare placement current
  // so the staleness that remains is exactly the routing repair.
  commit(Stage::kPlacement);
}

void DesignDB::set_mls_flags(std::vector<std::uint8_t> flags) {
  const std::size_t n = std::max(flags.size(), mls_flags_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t was = i < mls_flags_.size() ? mls_flags_[i] : 0;
    const std::uint8_t now = i < flags.size() ? flags[i] : 0;
    if (was != now) touch_net(static_cast<netlist::Id>(i));
  }
  mls_flags_ = std::move(flags);
}

void DesignDB::set_route_summary(const route::RouteSummary& summary, bool incremental) {
  audit_note_write(Stage::kRoutes);
  route_summary_ = summary;
  route_delta_.valid = incremental;
  route_delta_.changed = summary.changed_nets;
  route_delta_.changed_edges = summary.changed_edges;
}

void DesignDB::set_sta_result(const sta::StaResult& result) {
  // Consuming the route delta below is modeled as part of the kTiming
  // hand-off (the delta rides along with every snapshot), not a kRoutes
  // write — otherwise every STA run would need a phantom kRoutes
  // declaration and the sta/power/pdn wave could never parallelize.
  audit_note_write(Stage::kTiming);
  sta_result_ = result;
  route_delta_.valid = false;  // consumed: the next STA must not reuse it
  route_delta_.changed.clear();
  route_delta_.changed_edges.clear();
}

std::vector<netlist::Id> DesignDB::take_dirty_nets() {
  audit_note_read(Stage::kRoutes);
  audit_note_write(Stage::kRoutes);
  std::vector<netlist::Id> out;
  out.swap(dirty_);
  obs::Metrics::instance().gauge("db.dirty_nets").set(static_cast<double>(out.size()));
  return out;
}

route::Router& DesignDB::router(const route::RouterOptions& options) {
  audit_note_read(Stage::kRoutes);
  if (!router_) router_ = std::make_unique<route::Router>(design_, *tech_, options);
  return *router_;
}

sta::TimingGraph& DesignDB::timing() {
  audit_note_read(Stage::kTiming);
  if (!router_)
    throw std::logic_error("DesignDB::timing needs the router's routes; route first");
  audit_note_read(Stage::kRoutes);
  if (!sta_ || sta_built_at_ != design_.nl.revision()) {
    // Rebuilding the graph is a kTiming write — a pass that triggers it on a
    // stale netlist without declaring kTiming is exactly the kind of hidden
    // coupling the audit exists to catch.
    audit_note_write(Stage::kTiming);
    sta_ = std::make_unique<sta::TimingGraph>(design_, *tech_, router_->routes());
    sta_built_at_ = design_.nl.revision();
    invalidate(Stage::kTiming);
  }
  return *sta_;
}

const sta::TimingGraph* DesignDB::timing_if_fresh() const {
  audit_note_read(Stage::kTiming);
  if (!sta_ || sta_built_at_ != design_.nl.revision()) return nullptr;
  return sta_.get();
}

sta::TimingGraph* DesignDB::timing_if_fresh() {
  audit_note_read(Stage::kTiming);
  if (!sta_ || sta_built_at_ != design_.nl.revision()) return nullptr;
  return sta_.get();
}

namespace {

bool contains(std::span<const Stage> stages, Stage s) {
  for (const Stage x : stages)
    if (x == s) return true;
  return false;
}

}  // namespace

std::size_t DesignDB::Snapshot::approx_bytes() const {
  std::size_t b = sizeof(Snapshot);
  b += dirty.size() * sizeof(netlist::Id);
  b += mls_flags.size();
  b += route_delta.changed.size() * sizeof(netlist::Id) +
       route_delta.changed_edges.size() * sizeof(route::EdgeRef);
  if (design) {
    const netlist::Netlist& nl = design->nl;
    b += nl.num_cells() * sizeof(netlist::CellInst) + nl.num_pins() * sizeof(netlist::Pin);
    // Each pin sits in at most one net's sink list; num_pins bounds the
    // summed sink-vector payload without an O(nets) walk.
    b += nl.num_nets() * sizeof(netlist::Net) + nl.num_pins() * sizeof(netlist::Id);
    b += nl.journal_size() * sizeof(netlist::Id);
  }
  if (router) {
    const route::Router::Checkpoint& cp = *router;
    b += cp.routes.size() * sizeof(route::NetRoute) + cp.terms.size() * sizeof(route::Terminal) +
         cp.parents.size() * sizeof(int) + cp.edge_routes.size() * sizeof(route::EdgeRoute);
    b += (cp.term_count.size() + cp.edge_count.size() + cp.commit_edge_count.size() +
          cp.track_count.size() + cp.f2f_count.size() + cp.tracks.size() + cp.f2f.size()) *
         sizeof(std::uint32_t);
    b += cp.history.size() * sizeof(float) + cp.mls_flags.size();
    b += (cp.grid.use.size() + cp.grid.f2f_use.size()) * sizeof(float);
  }
  if (route_summary)
    b += sizeof(route::RouteSummary) +
         route_summary->changed_nets.size() * sizeof(netlist::Id) +
         route_summary->changed_edges.size() * sizeof(route::EdgeRef);
  if (sta_result) b += sizeof(sta::StaResult);
  if (power) b += sizeof(pdn::PowerReport);
  if (pdn) b += sizeof(pdn::PdnDesign);
  if (test_model) b += sizeof(dft::TestModel);
  return b;
}

DesignDB::Snapshot DesignDB::snapshot(std::span<const Stage> stages) const {
  Snapshot snap;
  snap.stages.assign(stages.begin(), stages.end());
  snap.tags = tags_;
  snap.counter = counter_.load(std::memory_order_relaxed);
  snap.dirty = dirty_;
  snap.journal_cursor = journal_cursor_;
  snap.mls_flags = mls_flags_;
  // The STA pass CONSUMES the route delta (set_sta_result clears it) while
  // declaring only kTiming writes, so the delta must ride along with every
  // snapshot, not just kRoutes ones.
  snap.route_delta = route_delta_;
  // DFT insertion mutates the netlist itself (declared via its kPlacement /
  // kTest writes), so those stages capture the whole design value.
  if (contains(stages, Stage::kNetlist) || contains(stages, Stage::kPlacement) ||
      contains(stages, Stage::kTest))
    snap.design = design_;
  if (contains(stages, Stage::kRoutes)) {
    if (router_) snap.router = router_->checkpoint();
    snap.route_summary = route_summary_;
  }
  if (contains(stages, Stage::kTiming)) {
    snap.sta_result = sta_result_;
    snap.sta_built_at = sta_built_at_;
  }
  if (contains(stages, Stage::kPower)) snap.power = power_;
  if (contains(stages, Stage::kPdn)) snap.pdn = pdn_;
  if (contains(stages, Stage::kTest)) snap.test_model = test_model_;
  return snap;
}

void DesignDB::restore(const Snapshot& snap) {
  tags_ = snap.tags;
  // Monotone: never rewind (rollback), but catch up to the source DB's
  // watermark when the snapshot came from another DB (cross-DB fork).
  std::uint64_t cur = counter_.load(std::memory_order_relaxed);
  while (cur < snap.counter &&
         !counter_.compare_exchange_weak(cur, snap.counter, std::memory_order_relaxed)) {
  }
  dirty_ = snap.dirty;
  journal_cursor_ = snap.journal_cursor;
  mls_flags_ = snap.mls_flags;
  route_delta_ = snap.route_delta;
  if (snap.design) design_ = *snap.design;
  const std::span<const Stage> stages(snap.stages);
  if (contains(stages, Stage::kRoutes)) {
    if (router_ && snap.router) router_->restore(*snap.router);
    route_summary_ = snap.route_summary;
  }
  if (contains(stages, Stage::kTiming) || snap.design) {
    // Drop the derived graph: its value arrays may be mid-update (or its pin
    // topology may index a restored, smaller netlist). The next STA rebuilds
    // from the restored routes — deterministically bit-identical.
    sta_.reset();
    sta_built_at_ = 0;
    if (contains(stages, Stage::kTiming)) sta_result_ = snap.sta_result;
  }
  if (contains(stages, Stage::kPower)) power_ = snap.power;
  if (contains(stages, Stage::kPdn)) pdn_ = snap.pdn;
  if (contains(stages, Stage::kTest)) test_model_ = snap.test_model;
  // Any marker still set belongs to the rolled-back wave.
  for (auto& open : write_open_) open.store(0, std::memory_order_relaxed);
}

void DesignDB::begin_write(Stage s) {
  write_open_[static_cast<std::size_t>(s)].store(1, std::memory_order_relaxed);
}

void DesignDB::end_write(Stage s) {
  write_open_[static_cast<std::size_t>(s)].store(0, std::memory_order_relaxed);
}

bool DesignDB::write_open(Stage s) const {
  return write_open_[static_cast<std::size_t>(s)].load(std::memory_order_relaxed) != 0;
}

std::vector<Stage> DesignDB::open_writes() const {
  std::vector<Stage> out;
  for (std::size_t i = 0; i < kNumStages; ++i)
    if (write_open_[i].load(std::memory_order_relaxed) != 0)
      out.push_back(static_cast<Stage>(i));
  return out;
}

std::uint64_t DesignDB::state_fingerprint() const {
  // Shared FNV-1a accumulator (core/fingerprint.hpp): byte-for-byte the same
  // mixing the ML engine uses for graph cache keys.
  Fnv1a fnv;
  auto mix = [&fnv](std::uint64_t v) { fnv.mix(v); };
  auto mix_f = [&fnv](double v) { fnv.mix_double(v); };
  for (const StageTag& t : tags_) {
    mix(t.revision);
    mix(t.built_from);
  }
  mix(design_.nl.revision());
  mix(design_.nl.num_cells());
  mix(design_.nl.num_nets());
  mix(design_.nl.num_pins());
  mix(dirty_.size());
  for (const netlist::Id n : dirty_) mix(n);
  mix(journal_cursor_);
  mix(mls_flags_.size());
  for (const std::uint8_t f : mls_flags_) mix(f);
  if (router_) {
    mix(router_->routed_revision());
    for (const route::NetRoute& r : router_->routes()) {
      mix_f(r.wl_um);
      mix_f(r.res_ohm);
      mix_f(r.cap_ff);
      mix(static_cast<std::uint64_t>(r.layers_used[0]) |
          (static_cast<std::uint64_t>(r.layers_used[1]) << 8) |
          (static_cast<std::uint64_t>(r.f2f_vias) << 16) |
          (static_cast<std::uint64_t>(r.mls_applied) << 24));
    }
    // Edge-granular state: the net-level aggregates above cannot see two
    // routings that differ per edge but sum to the same totals, which is
    // exactly what a thread-count-dependent negotiation bug would produce.
    // Mix every edge's geometry/layer choice so the ci.sh thread-sweep gate
    // (GNNMLS_THREADS in {1,2,4} -> identical fingerprint) is load-bearing.
    // All fields of one edge collapse into a single mixed word (fingerprint
    // runs on every transactional wave, so the per-edge cost matters).
    auto fbits = [](float v) {
      std::uint32_t b = 0;
      std::memcpy(&b, &v, sizeof(b));
      return static_cast<std::uint64_t>(b);
    };
    constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
    for (std::size_t n = 0; n < router_->routes().size(); ++n) {
      const auto& edges = router_->net_edges(static_cast<netlist::Id>(n));
      std::uint64_t eb = edges.size();
      for (const route::EdgeRoute& e : edges) {
        eb = eb * kGolden ^ (static_cast<std::uint64_t>(e.routed) |
                             (static_cast<std::uint64_t>(e.route_tier) << 1) |
                             (static_cast<std::uint64_t>(e.layer_lo) << 2) |
                             (static_cast<std::uint64_t>(e.f2f) << 10) |
                             (static_cast<std::uint64_t>(e.shared) << 18) |
                             (static_cast<std::uint64_t>(e.fallback) << 19) |
                             (static_cast<std::uint64_t>(e.gx1) << 20) |
                             (static_cast<std::uint64_t>(e.gy1) << 31) |
                             (static_cast<std::uint64_t>(e.gx2) << 42) |
                             (static_cast<std::uint64_t>(e.gy2) << 53));
        eb = eb * kGolden ^ (fbits(e.wl_um) | (fbits(e.res_ohm) << 32));
        eb = eb * kGolden ^ fbits(e.cap_ff);
      }
      mix(eb);
    }
  }
  if (route_summary_) {
    mix_f(route_summary_->total_wl_m);
    mix(route_summary_->mls_nets);
    mix(route_summary_->f2f_pairs);
    mix(route_summary_->census.overflow_gcells);
  }
  mix(static_cast<std::uint64_t>(route_delta_.valid));
  for (const netlist::Id n : route_delta_.changed) mix(n);
  for (const route::EdgeRef& e : route_delta_.changed_edges) {
    mix(e.net);
    mix(e.edge);
  }
  if (sta_result_) {
    mix_f(sta_result_->wns_ps);
    mix_f(sta_result_->tns_ns);
    mix(sta_result_->violating_endpoints);
    mix(sta_result_->endpoints);
  }
  if (power_) {
    mix_f(power_->total_mw);
    mix_f(power_->ls_mw);
  }
  if (pdn_) {
    mix_f(pdn_->worst_ir_pct);
    mix_f(pdn_->utilization[1]);
  }
  if (test_model_) mix(1);
  for (const auto& open : write_open_) mix(open.load(std::memory_order_relaxed));
  return fnv.value();
}

}  // namespace gnnmls::core
