// Tests for the versioned DesignDB core: stage revisions, freshness,
// invalidation cascades, the dirty-net set, the netlist mutation journal,
// the flow-level behaviors built on them (timing-graph rebuild on netlist
// change, RT-005 as a revision comparison), and private flows mutated and
// evaluated from concurrent threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/design_db.hpp"
#include "mls/flow.hpp"
#include "netlist/generators.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace gnnmls;
using core::DesignDB;
using core::Stage;
using netlist::Id;

// A minimal wired design for the pure DB-semantics tests (no placement or
// routing needed there).
netlist::Design tiny_design() {
  netlist::Design d;
  d.info.name = "tiny";
  const Id a = d.nl.add_cell(tech::CellKind::kInv, 0, 10.0f, 10.0f);
  const Id b = d.nl.add_cell(tech::CellKind::kBuf, 0, 20.0f, 10.0f);
  const Id c = d.nl.add_cell(tech::CellKind::kBuf, 1, 30.0f, 30.0f);
  d.nl.connect(a, 0, b, 0);
  d.nl.connect(b, 0, c, 0);
  return d;
}

TEST(Stage, UpstreamChainsTerminateAtNetlist) {
  for (std::size_t i = 0; i < core::kNumStages; ++i) {
    Stage s = static_cast<Stage>(i);
    int hops = 0;
    while (s != Stage::kNetlist) {
      s = core::upstream_of(s);
      ASSERT_LT(++hops, 10) << "upstream chain of stage " << i << " does not terminate";
    }
  }
  EXPECT_EQ(core::upstream_of(Stage::kNetlist), Stage::kNetlist);
  EXPECT_EQ(core::upstream_of(Stage::kTiming), Stage::kRoutes);
  EXPECT_EQ(core::upstream_of(Stage::kTest), Stage::kNetlist);
}

TEST(DesignDB, NetlistStageIsRootAndSelfVersioning) {
  const auto tech3d = tech::make_hetero_tech(6);
  DesignDB db(tiny_design(), tech3d);
  EXPECT_TRUE(db.built(Stage::kNetlist));
  EXPECT_TRUE(db.fresh(Stage::kNetlist));
  EXPECT_THROW(db.commit(Stage::kNetlist), std::logic_error);

  const std::uint64_t before = db.revision(Stage::kNetlist);
  db.design().nl.add_net();
  EXPECT_GT(db.revision(Stage::kNetlist), before);
}

TEST(DesignDB, CommitMakesFreshAndMutationMakesStale) {
  const auto tech3d = tech::make_hetero_tech(6);
  DesignDB db(tiny_design(), tech3d);
  EXPECT_FALSE(db.built(Stage::kPlacement));
  EXPECT_FALSE(db.fresh(Stage::kPlacement));

  db.commit(Stage::kPlacement);
  EXPECT_TRUE(db.built(Stage::kPlacement));
  EXPECT_TRUE(db.fresh(Stage::kPlacement));
  EXPECT_EQ(db.tag(Stage::kPlacement).built_from, db.revision(Stage::kNetlist));

  db.design().nl.add_net();
  EXPECT_TRUE(db.built(Stage::kPlacement));  // still built...
  EXPECT_FALSE(db.fresh(Stage::kPlacement)); // ...but stale

  db.commit(Stage::kPlacement);
  EXPECT_TRUE(db.fresh(Stage::kPlacement));
}

TEST(DesignDB, FreshnessRequiresTheWholeUpstreamChain) {
  const auto tech3d = tech::make_hetero_tech(6);
  DesignDB db(tiny_design(), tech3d);
  db.commit(Stage::kPlacement);
  db.commit(Stage::kRoutes);
  db.commit(Stage::kTiming);
  EXPECT_TRUE(db.fresh(Stage::kTiming));

  // A netlist mutation leaves every tag's own built_from intact but breaks
  // the chain at the root; everything downstream must read stale.
  db.design().nl.add_net();
  EXPECT_FALSE(db.fresh(Stage::kPlacement));
  EXPECT_FALSE(db.fresh(Stage::kRoutes));
  EXPECT_FALSE(db.fresh(Stage::kTiming));

  // Recommitting only the routes is not enough: placement is still stale.
  db.commit(Stage::kRoutes);
  EXPECT_FALSE(db.fresh(Stage::kRoutes));
  db.commit(Stage::kPlacement);
  db.commit(Stage::kRoutes);
  EXPECT_TRUE(db.fresh(Stage::kRoutes));
  EXPECT_FALSE(db.fresh(Stage::kTiming));  // built before the re-route
}

TEST(DesignDB, InvalidateCascadesDownstreamOnly) {
  const auto tech3d = tech::make_hetero_tech(6);
  DesignDB db(tiny_design(), tech3d);
  db.commit(Stage::kPlacement);
  db.commit(Stage::kRoutes);
  db.commit(Stage::kTiming);
  db.commit(Stage::kPower);
  db.commit(Stage::kTest);

  db.invalidate(Stage::kPlacement);
  EXPECT_FALSE(db.built(Stage::kPlacement));
  EXPECT_FALSE(db.built(Stage::kRoutes));
  EXPECT_FALSE(db.built(Stage::kTiming));
  EXPECT_FALSE(db.built(Stage::kPower));
  // kTest hangs off the netlist, not the placement: it survives.
  EXPECT_TRUE(db.built(Stage::kTest));
}

TEST(DesignDB, DirtySetIsSortedDedupedAndGatesRouteFreshness) {
  const auto tech3d = tech::make_hetero_tech(6);
  DesignDB db(tiny_design(), tech3d);
  db.commit(Stage::kPlacement);
  db.commit(Stage::kRoutes);
  EXPECT_TRUE(db.fresh(Stage::kRoutes));

  const Id nets[] = {1, 0, 1, 1, 0};
  db.touch_nets(nets);
  EXPECT_FALSE(db.dirty_nets().empty());
  EXPECT_EQ(db.dirty_nets(), (std::vector<Id>{0, 1}));
  EXPECT_FALSE(db.fresh(Stage::kRoutes));  // dirty nets = routes not fresh

  const std::vector<Id> taken = db.take_dirty_nets();
  EXPECT_EQ(taken, (std::vector<Id>{0, 1}));
  EXPECT_TRUE(db.dirty_nets().empty());

  db.touch_net(1);
  db.commit(Stage::kRoutes);  // a route commit absorbs the dirty set
  EXPECT_TRUE(db.dirty_nets().empty());
  EXPECT_TRUE(db.fresh(Stage::kRoutes));
}

TEST(DesignDB, JournalMarkTurnsMutationsIntoDirtyNets) {
  const auto tech3d = tech::make_hetero_tech(6);
  DesignDB db(tiny_design(), tech3d);
  netlist::Netlist& nl = db.design().nl;

  const std::size_t mark = db.journal_mark();
  const Id buf = nl.add_cell(tech::CellKind::kBuf, 0, 40.0f, 40.0f);
  const Id existing = 0;
  nl.add_sink(existing, nl.input_pin(buf, 0));
  const Id fresh_net = nl.add_net();
  nl.set_driver(fresh_net, nl.output_pin(buf, 0));

  db.touch_journal_since(mark);
  EXPECT_EQ(db.dirty_nets(), (std::vector<Id>{existing, fresh_net}));

  // The mark protocol is a cursor: re-absorbing from the current end is a
  // no-op, and a mark past the end is tolerated.
  db.take_dirty_nets();
  db.touch_journal_since(db.journal_mark());
  EXPECT_TRUE(db.dirty_nets().empty());
  db.touch_journal_since(db.journal_mark() + 100);
  EXPECT_TRUE(db.dirty_nets().empty());
}

TEST(NetlistJournal, MutatorsBumpRevisionAndRecordNets) {
  netlist::Netlist nl;
  EXPECT_EQ(nl.revision(), 0u);
  EXPECT_EQ(nl.journal_size(), 0u);

  // A new cell changes the pin population (STA topology) but touches no net:
  // revision moves, journal does not.
  const Id a = nl.add_cell(tech::CellKind::kInv, 0);
  const std::uint64_t rev_after_cell = nl.revision();
  EXPECT_GT(rev_after_cell, 0u);
  EXPECT_EQ(nl.journal_size(), 0u);

  const Id b = nl.add_cell(tech::CellKind::kBuf, 0);
  const Id n = nl.add_net();
  EXPECT_EQ(nl.journal().back(), n);
  nl.set_driver(n, nl.output_pin(a, 0));
  EXPECT_EQ(nl.journal().back(), n);
  nl.add_sink(n, nl.input_pin(b, 0));
  EXPECT_EQ(nl.journal().back(), n);

  const std::uint64_t before = nl.revision();
  nl.detach_sink(n, nl.input_pin(b, 0));
  EXPECT_GT(nl.revision(), before);
  EXPECT_EQ(nl.journal().back(), n);
  nl.add_sink(n, nl.input_pin(b, 0));

  // connect() journals through the primitives it calls.
  const Id c = nl.add_cell(tech::CellKind::kBuf, 0);
  const std::size_t mark = nl.journal_size();
  const Id m = nl.connect(b, 0, c, 0);
  const std::span<const Id> delta = nl.journal().subspan(mark);
  EXPECT_FALSE(delta.empty());
  for (const Id t : delta) EXPECT_EQ(t, m);
}

// ---- flow-level behaviors on top of the DB --------------------------------

mls::FlowConfig flow_config() {
  mls::FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.run_pdn = false;
  return cfg;
}

mls::DesignFlow make_flow() { return mls::DesignFlow(netlist::make_maeri_16pe(), flow_config()); }

// Rewires one sink of a routed net without changing any array size: the
// exact mutation the old size-heuristic RT-005 could not see.
netlist::Id rewire_one_sink(netlist::Netlist& nl) {
  for (Id n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(n);
    if (net.driver == netlist::kNullId || net.sinks.empty()) continue;
    const Id pin = net.sinks.front();
    nl.detach_sink(n, pin);
    nl.add_sink(n, pin);
    return n;
  }
  ADD_FAILURE() << "no rewirable net found";
  return netlist::kNullId;
}

TEST(FlowDB, TimingGraphRebuildsWhenTheNetlistMoves) {
  mls::DesignFlow flow = make_flow();
  flow.evaluate_no_mls();
  EXPECT_NE(flow.db().timing_if_fresh(), nullptr);
  EXPECT_EQ(flow.router().routed_revision(), flow.design().nl.revision());

  rewire_one_sink(flow.db().design().nl);
  EXPECT_EQ(flow.db().timing_if_fresh(), nullptr) << "stale graph must be withheld";

  // sta() reads through to DesignDB::timing(), which rebuilds transparently.
  const sta::StaResult r = flow.sta().run(flow.design().info.clock_ps, 40.0);
  EXPECT_GT(r.endpoints, 0u);
  EXPECT_NE(flow.db().timing_if_fresh(), nullptr);
}

TEST(FlowDB, Rt005FiresOnRevisionNotJustSize) {
  mls::DesignFlow flow = make_flow();
  flow.evaluate_no_mls();
  const check::Report clean = flow.run_checks();
  EXPECT_TRUE(clean.clean()) << clean.render();

  // Same net count, same sink counts — only the revision moved.
  rewire_one_sink(flow.db().design().nl);
  ASSERT_EQ(flow.router().routes().size(), flow.design().nl.num_nets());
  const check::Report stale = flow.run_checks();
  EXPECT_FALSE(stale.clean());
  EXPECT_NE(stale.render().find("RT-005"), std::string::npos) << stale.render();

  // Re-routing clears the condition.
  flow.evaluate_no_mls();
  const check::Report again = flow.run_checks();
  EXPECT_TRUE(again.clean()) << again.render();
}

// ---- concurrent forks ------------------------------------------------------

// A private flow over a fresh copy of the raw design, warmed by its own
// no-MLS evaluate.
std::unique_ptr<mls::DesignFlow> warm_fork() {
  auto fork = std::make_unique<mls::DesignFlow>(netlist::make_maeri_16pe(), flow_config());
  fork->evaluate_no_mls();
  return fork;
}

// Seeded MLS decision vector with ~6% of nets flagged.
std::vector<std::uint8_t> seeded_flags(std::size_t nets, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> flags(nets, 0);
  for (std::uint8_t& f : flags) f = (rng.next_u64() & 0xF) == 0 ? 1 : 0;
  return flags;
}

// Seeded buffer-pair splice behind a driven net (the ECO idiom of
// test_incremental.cpp); the next evaluate repairs it incrementally.
void seeded_eco(netlist::Netlist& nl, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Id> driven;
  for (Id n = 0; n < nl.num_nets(); ++n)
    if (nl.net(n).driver != netlist::kNullId) driven.push_back(n);
  const Id tapped = driven[rng.next_u64() % driven.size()];
  const auto coord = [&rng] { return 40.0f + static_cast<float>(rng.next_u64() % 240); };
  const Id b1 = nl.add_cell(tech::CellKind::kBuf, 0, coord(), coord());
  const Id b2 = nl.add_cell(tech::CellKind::kBuf, 0, coord(), coord());
  nl.add_sink(tapped, nl.input_pin(b1, 0));
  nl.connect(b1, 0, b2, 0);
}

// Fork `stream` runs three seeded rounds on its own flow: a flag flip each
// round, plus an ECO in round 1 on even streams. Returns the final state
// fingerprint.
std::uint64_t run_stream(int stream) {
  const std::unique_ptr<mls::DesignFlow> fork = warm_fork();
  for (int round = 0; round < 3; ++round) {
    if (round == 1 && stream % 2 == 0)
      seeded_eco(fork->db().design().nl, 500 + static_cast<std::uint64_t>(stream));
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(round * 8 + stream);
    fork->evaluate(seeded_flags(fork->design().nl.num_nets(), seed), mls::Strategy::kSota);
  }
  return fork->db().state_fingerprint();
}

TEST(FlowFork, ConcurrentForksMatchSerialTwins) {
  // N threads each warm a private flow and run a distinct seeded
  // mutate/evaluate stream at the same time. Each live fingerprint must
  // equal the one its stream reaches alone.
  util::set_log_level(util::LogLevel::kError);
  constexpr int kForks = 3;
  std::vector<std::uint64_t> live(kForks, 0);
  std::vector<std::string> errors(kForks);
  std::vector<std::thread> threads;
  for (int i = 0; i < kForks; ++i)
    threads.emplace_back([&, i] {
      try {
        live[i] = run_stream(i);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kForks; ++i) {
    ASSERT_EQ(errors[i], "") << "stream " << i;
    EXPECT_EQ(run_stream(i), live[i]) << "stream " << i;
  }
  // Distinct streams must land on distinct states (the twin check would be
  // vacuous if every fork converged to one fingerprint).
  EXPECT_NE(live[0], live[1]);
  EXPECT_NE(live[1], live[2]);
}

}  // namespace
