// The experiment registry behind `dassim --experiment`: every registered
// grid is well formed (unique name that labels its rows, non-empty, valid
// configurations, no duplicate rows, an FCFS baseline for the gain columns)
// and reproducible run to run. Also the ad-hoc grid every other dassim run
// builds, and the block tables dassim prints under any grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/bench_json.hpp"
#include "core/metrics.hpp"
#include "core/sweep.hpp"
#include "experiments.hpp"

namespace das::experiments {
namespace {

std::vector<Experiment> all_experiments() {
  std::vector<Experiment> out;
  for (const std::string& name : experiment_names())
    out.push_back(build_experiment(name));
  return out;
}

bool runs(const Experiment& e, sched::Policy policy) {
  return std::find(e.policies.begin(), e.policies.end(), policy) !=
         e.policies.end();
}

TEST(ExperimentRegistry, NamesAreUniqueAndLabelEveryRow) {
  const std::vector<std::string> names = experiment_names();
  EXPECT_EQ(names.size(), 21u);  // E1–E11 and E13–E22; E12 is a microbench
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());
  for (const std::string& name : names) {
    const Experiment e = build_experiment(name);
    EXPECT_EQ(e.name, name);
    for (const core::SweepPoint& p : sweep_points(e))
      EXPECT_EQ(p.experiment, name) << p.point;
  }
}

TEST(ExperimentRegistry, UnknownNameNamesTheFlagAndListsTheGrids) {
  try {
    build_experiment("E99_nope");
    FAIL() << "an unknown name must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--experiment"), std::string::npos) << what;
    for (const std::string& name : experiment_names())
      EXPECT_NE(what.find(name), std::string::npos) << what;
  }
}

TEST(ExperimentRegistry, EveryGridIsNonEmpty) {
  for (const Experiment& e : all_experiments()) {
    EXPECT_FALSE(e.points.empty()) << e.name;
    EXPECT_FALSE(e.policies.empty()) << e.name;
    EXPECT_FALSE(e.tables.empty()) << e.name;
    EXPECT_EQ(sweep_points(e).size(), e.points.size() * e.policies.size())
        << e.name;
  }
}

TEST(ExperimentRegistry, EveryPointValidates) {
  for (const Experiment& e : all_experiments()) {
    for (core::SweepPoint& p : sweep_points(e)) {
      p.config.policy = p.policy;
      EXPECT_NO_THROW(p.config.validate())
          << e.name << " " << p.point << " " << sched::to_string(p.policy);
    }
  }
}

TEST(ExperimentRegistry, NoPointPolicyPairRepeats) {
  for (const Experiment& e : all_experiments()) {
    std::set<std::pair<std::string, sched::Policy>> seen;
    for (const core::SweepPoint& p : sweep_points(e)) {
      EXPECT_TRUE(seen.emplace(p.point, p.policy).second)
          << e.name << " repeats " << p.point << " / "
          << sched::to_string(p.policy);
    }
  }
}

TEST(ExperimentRegistry, TablesPrintKnownMetricsAgainstAnFcfsBaseline) {
  for (const Experiment& e : all_experiments()) {
    for (const TableSpec& table : e.tables) {
      if (table.metric.empty()) {
        // One row per policy: only meaningful for a single-point grid.
        EXPECT_EQ(e.points.size(), 1u) << e.name;
      } else {
        EXPECT_NE(find_table_field(table.metric), nullptr)
            << e.name << " " << table.metric;
      }
    }
    // The "das vs fcfs" columns, the per-policy "vs fcfs" column and the
    // JSON gain_vs_fcfs_pct all need the FCFS row; it runs first.
    if (runs(e, sched::Policy::kDas)) {
      EXPECT_TRUE(runs(e, sched::Policy::kFcfs)) << e.name;
      EXPECT_EQ(e.policies.front(), sched::Policy::kFcfs) << e.name;
    }
  }
}

// A one-point fcfs/das grid whose results carry the given mean RCT and
// goodput, printed as the `metric` table.
std::string one_point_table(const std::string& metric, double fcfs_mean,
                            double das_mean, double fcfs_goodput,
                            double das_goodput) {
  Experiment e;
  e.name = "gain";
  e.points.push_back({"p", core::ClusterConfig{}, core::RunWindow{}});
  e.policies = {sched::Policy::kFcfs, sched::Policy::kDas};
  std::vector<core::SweepOutcome> rows(2);
  rows[0].result.rct.mean = fcfs_mean;
  rows[0].result.goodput_rps = fcfs_goodput;
  rows[1].result.rct.mean = das_mean;
  rows[1].result.goodput_rps = das_goodput;
  std::ostringstream os;
  print_table(os, e, rows, metric);
  return os.str();
}

TEST(ExperimentTables, GainIsPositiveWhenDasIsBetterInEitherDirection) {
  // Lower is better for RCT: 200 -> 150 is a 25% gain.
  EXPECT_NE(one_point_table("mean_rct_us", 200, 150, 0, 0).find("25.0%"),
            std::string::npos);
  // Higher is better for goodput: 27,525 -> 42,425 is a 54.1% gain, not a
  // loss.
  const std::string goodput = one_point_table("goodput_rps", 0, 0, 27525, 42425);
  EXPECT_NE(goodput.find("54.1%"), std::string::npos) << goodput;
  EXPECT_EQ(goodput.find("-54.1%"), std::string::npos) << goodput;
  EXPECT_NE(one_point_table("goodput_rps", 0, 0, 200, 100).find("-50.0%"),
            std::string::npos);
}

TEST(ExperimentTables, TitlesNameTheMetricAndItsUnit) {
  const std::string mean = one_point_table("mean_rct_us", 200, 150, 0, 0);
  EXPECT_EQ(mean.rfind("== gain — RCT mean (us) ==\n", 0), 0u) << mean;
  const std::string goodput = one_point_table("goodput_rps", 0, 0, 1, 2);
  EXPECT_EQ(goodput.find("RCT"), std::string::npos) << goodput;
  EXPECT_NE(goodput.find("goodput (completed requests/s)"), std::string::npos)
      << goodput;
  // A counter has no better direction, so its gain cell is "-".
  std::istringstream lines{one_point_table("reranks_applied", 0, 0, 0, 0)};
  std::string row;
  for (int i = 0; i < 4; ++i) std::getline(lines, row);  // title, header, rule
  EXPECT_EQ(row.back(), '-') << row;
}

TEST(ResultFields, NamesAreUniqueWithinEachJsonObject) {
  std::set<std::pair<core::Block, std::string>> seen;
  for (const core::ResultField& field : core::result_fields()) {
    // kMechanism and kLast are written on the point object, like kTop.
    const core::Block object =
        core::json_object(field.block) == nullptr ? core::Block::kTop
                                                  : field.block;
    EXPECT_TRUE(seen.emplace(object, field.name).second) << field.name;
  }
  std::set<std::string> tenant;
  for (const core::TenantField& field : core::tenant_fields())
    EXPECT_TRUE(tenant.emplace(field.name).second) << field.name;
  EXPECT_FALSE(tenant.contains("name"));  // the tenant's label, written first
}

TEST(ResultFields, EveryTableMetricIsATitledFieldOfItsOwnName) {
  std::set<std::string> titled;
  for (const core::ResultField& field : core::result_fields()) {
    if (field.title == nullptr) continue;
    EXPECT_TRUE(titled.emplace(field.name).second) << field.name;
    EXPECT_EQ(find_table_field(field.name), &field) << field.name;
  }
  EXPECT_EQ(find_table_field("p50_us"), nullptr);  // untitled
  EXPECT_EQ(find_table_field("nope"), nullptr);
  // A table-only field stays out of the JSON.
  const core::ResultField* progress = find_table_field("progress_messages");
  ASSERT_NE(progress, nullptr);
  EXPECT_EQ(progress->block, core::Block::kNone);
}

// The header row of print_block's table for `block`, split on blanks.
std::vector<std::string> block_headers(core::Block block,
                                       const std::vector<core::SweepOutcome>& rows) {
  std::ostringstream os;
  print_block(os, "heading", rows, block);
  std::istringstream lines{os.str()};
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line, "== heading ==");
  std::getline(lines, line);
  std::istringstream words{line};
  std::vector<std::string> headers;
  for (std::string word; words >> word;) headers.push_back(word);
  return headers;
}

TEST(BlockTables, PrintOneColumnPerFieldOfTheBlock) {
  // Two points of two policies: one row per (point, policy).
  std::vector<core::SweepOutcome> rows(4);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].point = i < 2 ? "load=0.50" : "load=0.70";
    rows[i].policy = i % 2 == 0 ? sched::Policy::kFcfs : sched::Policy::kDas;
  }
  rows[3].result.ops_failed_over = 42;
  rows[3].result.availability = 0.5;
  for (const core::Block block :
       {core::Block::kMechanism, core::Block::kBreakdown, core::Block::kDegradation,
        core::Block::kOverload, core::Block::kStorage}) {
    std::vector<std::string> want{"point", "policy"};
    for (const core::ResultField& field : core::result_fields())
      if (field.block == block) want.emplace_back(field.name);
    EXPECT_GT(want.size(), 2u);
    EXPECT_EQ(block_headers(block, rows), want);
  }
  std::ostringstream os;
  print_block(os, "degradation", rows, core::Block::kDegradation);
  const std::string out = os.str();
  EXPECT_NE(out.find("0.5000"), std::string::npos) << out;  // its precision
  EXPECT_NE(out.find(" 42 "), std::string::npos) << out;     // a count
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 7) << out;
  // The last row is the second point's DAS row, and carries its counts.
  const std::size_t last = out.rfind('\n', out.size() - 2) + 1;
  EXPECT_EQ(out.compare(last, 9, "load=0.70"), 0) << out;
  EXPECT_NE(out.find("das", last), std::string::npos) << out;
  EXPECT_NE(out.find(" 42 ", last), std::string::npos) << out;
}

TEST(BlockTables, TenantRowsCarryPointPolicyAndTenant) {
  std::vector<core::SweepOutcome> rows(2);
  rows[0].point = "load=0.50";
  rows[1].point = "load=0.70";
  rows[1].policy = sched::Policy::kDas;
  for (core::SweepOutcome& row : rows) row.result.tenants.resize(2);
  rows[1].result.tenants[0].name = "steady";
  rows[1].result.tenants[1].name = "bursty";
  std::ostringstream os;
  print_tenant_block(os, "per-tenant RCT", rows);
  std::istringstream lines{os.str()};
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line, "== per-tenant RCT ==");
  std::getline(lines, line);
  std::istringstream words{line};
  std::vector<std::string> headers;
  for (std::string word; words >> word;) headers.push_back(word);
  ASSERT_GE(headers.size(), 3u);
  EXPECT_EQ(std::vector<std::string>(headers.begin(), headers.begin() + 3),
            (std::vector<std::string>{"point", "policy", "tenant"}));
  std::vector<std::string> last_row;
  for (std::string row; std::getline(lines, row);) {
    std::istringstream cells{row};
    last_row.clear();
    for (std::string cell; cells >> cell;) last_row.push_back(cell);
  }
  ASSERT_GE(last_row.size(), 3u);
  EXPECT_EQ(last_row[0], "load=0.70");
  EXPECT_EQ(last_row[1], "das");
  EXPECT_EQ(last_row[2], "bursty");
}

// --- the ad-hoc grid -------------------------------------------------------

core::ClusterConfig replicated(std::size_t copies) {
  core::ClusterConfig base;
  base.replication = copies;
  return base;
}

// The (point label, policy) of every row, in sweep_points order.
std::vector<std::pair<std::string, sched::Policy>> rows_of(const Experiment& e) {
  std::vector<std::pair<std::string, sched::Policy>> out;
  for (const core::SweepPoint& p : sweep_points(e)) out.emplace_back(p.point, p.policy);
  return out;
}

TEST(SweepGrid, LoadsOuterSelectionsInnerThenPolicies) {
  const std::vector<sched::Policy> policies{sched::Policy::kFcfs,
                                            sched::Policy::kDas};
  const Experiment e = sweep_grid(replicated(2), core::RunWindow{}, policies,
                                  "0.5,0.8", "c3,random");
  EXPECT_EQ(e.name, "sweep");
  using sched::Policy;
  // Every selection given is a row: c3 and random both, not just one.
  const std::vector<std::pair<std::string, Policy>> want{
      {"load=0.50 sel=c3", Policy::kFcfs},     {"load=0.50 sel=c3", Policy::kDas},
      {"load=0.50 sel=random", Policy::kFcfs}, {"load=0.50 sel=random", Policy::kDas},
      {"load=0.80 sel=c3", Policy::kFcfs},     {"load=0.80 sel=c3", Policy::kDas},
      {"load=0.80 sel=random", Policy::kFcfs}, {"load=0.80 sel=random", Policy::kDas}};
  EXPECT_EQ(rows_of(e), want);
  // Each point carries its coordinates on top of the base cluster.
  ASSERT_EQ(e.points.size(), 4u);
  EXPECT_DOUBLE_EQ(e.points[0].config.target_load, 0.5);
  EXPECT_EQ(e.points[0].config.replica_selection, core::ReplicaSelection::kC3);
  EXPECT_DOUBLE_EQ(e.points[3].config.target_load, 0.8);
  EXPECT_EQ(e.points[3].config.replica_selection, core::ReplicaSelection::kRandom);
  for (const GridPoint& p : e.points) EXPECT_EQ(p.config.replication, 2u);
  ASSERT_EQ(e.tables.size(), 1u);
  EXPECT_EQ(e.tables.front().metric, "mean_rct_us");
}

TEST(SweepGrid, OneSelectionKeepsPlainLabelsAndOnePointPrintsPerPolicy) {
  const std::vector<sched::Policy> policies{sched::Policy::kFcfs};
  const Experiment loads =
      sweep_grid(replicated(1), core::RunWindow{}, policies, "0.3,0.7", "primary");
  ASSERT_EQ(loads.points.size(), 2u);
  EXPECT_EQ(loads.points[0].label, "load=0.30");
  EXPECT_EQ(loads.points[1].label, "load=0.70");
  const Experiment one =
      sweep_grid(replicated(2), core::RunWindow{}, policies, "0.7", "c3");
  ASSERT_EQ(one.points.size(), 1u);
  EXPECT_EQ(one.points[0].label, "load=0.70");
  EXPECT_EQ(one.points[0].config.replica_selection, core::ReplicaSelection::kC3);
  ASSERT_EQ(one.tables.size(), 1u);
  EXPECT_TRUE(one.tables.front().metric.empty());  // the per-policy table
}

// The message of the std::invalid_argument sweep_grid throws, or "".
std::string grid_error(std::size_t copies, const std::string& loads,
                       const std::string& selections) {
  try {
    (void)sweep_grid(replicated(copies), core::RunWindow{}, {sched::Policy::kDas},
                     loads, selections);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SweepGrid, SeveralSelectionsNeedReplicas) {
  const std::string what = grid_error(1, "0.7", "c3,random");
  EXPECT_EQ(what.rfind("flag --selection: ", 0), 0u) << what;
  EXPECT_NE(what.find("--replication >= 2"), std::string::npos) << what;
  EXPECT_EQ(grid_error(2, "0.7", "c3,random"), "");
  EXPECT_EQ(grid_error(1, "0.7", "c3"), "");  // one mode is one row
}

TEST(SweepGrid, MalformedListsNameTheirFlag) {
  for (const std::string loads : {"", "0.5,", "x", "0.5,0.5x", "0", "12"}) {
    const std::string what = grid_error(2, loads, "primary");
    EXPECT_EQ(what.rfind("flag --load: ", 0), 0u) << loads << ": " << what;
  }
  for (const std::string selections : {"", "c3,", "bogus"}) {
    const std::string what = grid_error(2, "0.7", selections);
    EXPECT_EQ(what.rfind("flag --selection: ", 0), 0u)
        << selections << ": " << what;
  }
}

// The JSON rendering of a run with the one non-deterministic field dropped.
std::string deterministic_json(const Experiment& e,
                               const std::vector<core::SweepOutcome>& rows) {
  std::istringstream is{core::bench_json_string(e.name, rows)};
  std::string out;
  for (std::string line; std::getline(is, line);)
    if (line.find("\"wall_seconds\"") == std::string::npos) out += line + '\n';
  return out;
}

TEST(ExperimentRegistry, HedgingGridReproducesRunToRun) {
  const Experiment e = build_experiment("E16_hedging");
  core::SweepRunner runner;
  for (core::SweepPoint& p : sweep_points(e)) runner.add(std::move(p));
  const std::vector<core::SweepOutcome> serial = runner.run(1);
  const std::vector<core::SweepOutcome> parallel = runner.run(2);
  ASSERT_EQ(serial.size(), e.points.size() * e.policies.size());
  EXPECT_GT(serial.front().result.requests_measured, 0u);
  EXPECT_EQ(deterministic_json(e, serial), deterministic_json(e, parallel));
}

}  // namespace
}  // namespace das::experiments
