// Named experiment grids: the paper's evaluation (E1–E11) and its
// extensions (E13–E22), one builder per experiment in a by-name registry.
//
// Each builder returns its grid — the points (a label, the cluster
// configuration and the run window), the policies run at every point and
// the paper-style tables to print from the results. `dassim
// --experiment=E5_skew --jobs=4 --json=BENCH_E5_skew.json` runs one on
// core::SweepRunner; every other dassim run is the ad-hoc grid sweep_grid()
// builds from the cluster flags, and goes through the same runner and the
// same printers under the name "sweep".
//
// The catalogue lives beside dassim, not in the simulator library: nothing
// under src/ depends on which grids exist.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/sweep.hpp"

namespace das::experiments {

/// One coordinate of a grid; every policy of the experiment runs on it.
struct GridPoint {
  std::string label;  // e.g. "load=0.7"
  core::ClusterConfig config;
  core::RunWindow window;
};

/// One printed table: a "### heading" line and a point × policy grid of
/// `metric`, the JSON name of a titled result field (core/metrics.hpp).
/// An empty metric prints one row per policy instead (percentiles, gain and
/// utilisation of a single-point grid).
struct TableSpec {
  std::string heading;
  std::string metric;
};

struct Experiment {
  std::string name;  // the --experiment name and the JSON "experiment" label
  std::vector<GridPoint> points;
  std::vector<sched::Policy> policies;
  std::vector<TableSpec> tables;
};

/// Registered names, in experiment order (E1_load_mean … E22_overload).
std::vector<std::string> experiment_names();

/// Builds the named grid. Throws std::invalid_argument naming --experiment
/// and listing the registered names when `name` is unknown.
Experiment build_experiment(const std::string& name);

/// The ad-hoc grid "sweep": every load of `loads` × every replica-selection
/// mode of `selections` (comma lists, as dassim's --load and --selection
/// take them) on `base`, with `policies` run at every point. Points are
/// load-major and labelled "load=0.50", plus " sel=c3" when several modes
/// are given. One point prints the per-policy table, several the Mean RCT
/// table. Throws std::invalid_argument naming --load or --selection on a
/// malformed list, and naming --selection when several modes meet a
/// `base` with one copy per key.
Experiment sweep_grid(const core::ClusterConfig& base, const core::RunWindow& window,
                      const std::vector<sched::Policy>& policies,
                      const std::string& loads, const std::string& selections);

/// The grid as sweep points: point-major, policies in list order — the row
/// order of the tables and of the JSON.
std::vector<core::SweepPoint> sweep_points(const Experiment& experiment);

/// The field tables print as `metric`: the first titled result field of that
/// JSON name, or nullptr.
const core::ResultField* find_table_field(std::string_view metric);

/// Prints one point × policy table of `metric` over `outcomes`, which are in
/// sweep_points order, under the field's title. Adds a "das vs fcfs" gain
/// column when both policies are in the grid: positive when DAS is better in
/// the field's direction, "-" for fields without one.
void print_table(std::ostream& os, const Experiment& experiment,
                 const std::vector<core::SweepOutcome>& outcomes,
                 const std::string& metric);

/// Prints "== heading ==" and one row per (point, policy) outcome with a
/// column per result field of `block`, headed by the field's JSON name.
void print_block(std::ostream& os, const std::string& heading,
                 const std::vector<core::SweepOutcome>& outcomes, core::Block block);

/// Prints "== heading ==" and one row per (point, policy, tenant) with a
/// column per tenant field, headed by the field's JSON name.
void print_tenant_block(std::ostream& os, const std::string& heading,
                        const std::vector<core::SweepOutcome>& outcomes);

}  // namespace das::experiments
