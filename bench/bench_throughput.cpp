// bench_throughput — raw engine throughput (events/sec), the perf trajectory.
//
//   ./build/bench/bench_throughput                      # print the table
//   ./build/bench/bench_throughput --json=BENCH_PERF.json
//   ./build/bench/bench_throughput --scale=0.2          # CI smoke size
//
// Unlike the experiment grids (`dassim --experiment`, which measure the
// SIMULATED system), this measures the SIMULATOR itself: how many events per
// wall-clock second the engine dispatches under four fixed workloads (timer
// ring, cancel-heavy, network streaming, full cluster). CI's perf-smoke job
// runs it at a reduced scale, validates the JSON against the schema and
// gates on events/sec regressions versus bench/perf_baseline.json.
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "perf.hpp"

int main(int argc, char** argv) {
  using namespace das;

  Flags flags;
  flags.define("scale", "1",
               "event-budget multiplier for every workload (CI uses < 1)");
  flags.define("engine-only", "false",
               "skip the two full-cluster points (microbenches only)");
  flags.define("json", "", "write results as BENCH_PERF-schema JSON here");
  flags.define("help", "false", "show this help");

  std::string error;
  if (!flags.parse(argc, argv, &error)) {
    std::cerr << error << "\n\n";
    flags.print_help(std::cerr, "bench_throughput");
    return 2;
  }
  if (flags.get_bool("help")) {
    flags.print_help(std::cout, "bench_throughput");
    return 0;
  }

  core::PerfOptions options;
  options.scale = flags.get_double("scale");
  options.engine_only = flags.get_bool("engine-only");
  if (options.scale <= 0) {
    std::cerr << "--scale must be positive\n";
    return 2;
  }

  const std::vector<core::PerfPoint> points = core::run_perf_suite(options);

  Table table{{"point", "events", "lane events", "wall (s)", "events/sec",
               "sim time (ms)"}};
  for (const core::PerfPoint& p : points) {
    table.add_row({p.point, std::to_string(p.events), std::to_string(p.lane_events),
                   Table::fmt(p.wall_seconds, 3),
                   Table::fmt(p.events_per_sec, 0),
                   Table::fmt(p.sim_time_us / 1000.0, 1)});
  }
  std::cout << "== engine throughput (scale " << options.scale << ") ==\n";
  table.print(std::cout);

  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    core::write_perf_json(json_path, "perf_throughput", points);
    std::cerr << "wrote " << json_path << "\n";
  }
  return 0;
}
