// Tests for the HPM layer: formula compiler/evaluator, architecture model,
// performance group parsing and validation, counter simulator calibration
// (counts match configured rates), wrap-around handling, and the monitor's
// derived metrics and group multiplexing.

#include <gtest/gtest.h>

#include <cmath>

#include "lms/hpm/arch.hpp"
#include "lms/hpm/formula.hpp"
#include "lms/hpm/monitor.hpp"
#include "lms/hpm/perfgroup.hpp"
#include "lms/hpm/simulator.hpp"

namespace lms::hpm {
namespace {

using util::kNanosPerSecond;

// ---------------------------------------------------------------- formula

double eval(std::string_view text, const VarMap& vars = {}) {
  auto f = Formula::compile(text);
  EXPECT_TRUE(f.ok()) << text << ": " << f.message();
  auto v = f->evaluate(vars);
  EXPECT_TRUE(v.ok()) << text << ": " << v.message();
  return *v;
}

TEST(Formula, Arithmetic) {
  EXPECT_DOUBLE_EQ(eval("1+2*3"), 7.0);
  EXPECT_DOUBLE_EQ(eval("(1+2)*3"), 9.0);
  EXPECT_DOUBLE_EQ(eval("10/4"), 2.5);
  EXPECT_DOUBLE_EQ(eval("2^10"), 1024.0);
  EXPECT_DOUBLE_EQ(eval("2^3^2"), 512.0);  // right associative
  EXPECT_DOUBLE_EQ(eval("-3+5"), 2.0);
  EXPECT_DOUBLE_EQ(eval("--4"), 4.0);
  EXPECT_DOUBLE_EQ(eval("1-2-3"), -4.0);  // left associative
}

TEST(Formula, ScientificNotation) {
  EXPECT_DOUBLE_EQ(eval("1.0E-06*2000000"), 2.0);
  EXPECT_DOUBLE_EQ(eval("2e3"), 2000.0);
  EXPECT_DOUBLE_EQ(eval("1.5E+2"), 150.0);
}

TEST(Formula, Variables) {
  const VarMap vars{{"PMC0", 100.0}, {"time", 2.0}, {"FIXC0", 400.0}};
  EXPECT_DOUBLE_EQ(eval("PMC0/time", vars), 50.0);
  EXPECT_DOUBLE_EQ(eval("1.0E-06*(PMC0*2.0+FIXC0)/time", vars), 3e-4);
}

TEST(Formula, LikwidRealFormulas) {
  // Actual formulas from the shipped groups.
  const VarMap vars{{"FIXC0", 4e9}, {"FIXC1", 2e9}, {"FIXC2", 2.3e9},
                    {"PMC0", 1e8},  {"PMC1", 5e7},  {"PMC2", 2e8},
                    {"time", 1.0},  {"inverseClock", 1.0 / 2.3e9}};
  EXPECT_NEAR(eval("1.0E-06*(FIXC1/FIXC2)/inverseClock", vars), 2000.0, 1e-9);
  EXPECT_DOUBLE_EQ(eval("FIXC1/FIXC0", vars), 0.5);
  EXPECT_NEAR(eval("1.0E-06*(PMC0*2.0+PMC1+PMC2*4.0)/time", vars), 1050.0, 1e-9);
  EXPECT_NEAR(eval("100.0*(PMC0+PMC2)/(PMC0+PMC1+PMC2)", vars), 85.714285, 1e-4);
}

TEST(Formula, DivisionByZeroYieldsZero) {
  EXPECT_DOUBLE_EQ(eval("5/0"), 0.0);
  EXPECT_DOUBLE_EQ(eval("PMC0/PMC1", {{"PMC0", 3.0}, {"PMC1", 0.0}}), 0.0);
}

TEST(Formula, MinMaxAbs) {
  EXPECT_DOUBLE_EQ(eval("min(3, 7)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("max(3, 7)"), 7.0);
  EXPECT_DOUBLE_EQ(eval("abs(-5)"), 5.0);
  EXPECT_DOUBLE_EQ(eval("max(1+1, 3*1)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("min(max(1,5), abs(-3))"), 3.0);
}

TEST(Formula, UnboundVariableFails) {
  auto f = Formula::compile("PMC9/2");
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(f->evaluate({}).ok());
}

TEST(Formula, CompileErrors) {
  EXPECT_FALSE(Formula::compile("").ok());
  EXPECT_FALSE(Formula::compile("1+").ok());
  EXPECT_FALSE(Formula::compile("(1+2").ok());
  EXPECT_FALSE(Formula::compile("1+2)").ok());
  EXPECT_FALSE(Formula::compile("1 2").ok());
  EXPECT_FALSE(Formula::compile("$bad").ok());
}

TEST(Formula, VariableListDeduplicated) {
  auto f = Formula::compile("PMC0+PMC1*PMC0");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->variables(), (std::vector<std::string>{"PMC0", "PMC1"}));
}

// ---------------------------------------------------------------- arch

TEST(Arch, BuiltinsConsistent) {
  for (const CounterArchitecture* arch : {&simx86(), &simx86_small()}) {
    EXPECT_GT(arch->total_cores(), 0);
    EXPECT_GT(arch->peak_dp_flops_per_core, 0);
    EXPECT_GT(arch->peak_mem_bw_per_socket, 0);
    EXPECT_NE(arch->find_slot("PMC0"), nullptr);
    EXPECT_NE(arch->find_slot("FIXC0"), nullptr);
    EXPECT_NE(arch->find_slot("PWR0"), nullptr);
    EXPECT_NE(arch->find_event("INSTR_RETIRED_ANY"), nullptr);
    EXPECT_EQ(arch->find_event("NOT_AN_EVENT"), nullptr);
    EXPECT_EQ(arch->find_slot("PMC99"), nullptr);
  }
  EXPECT_EQ(find_architecture("simx86"), &simx86());
  EXPECT_EQ(find_architecture("simx86-small"), &simx86_small());
  EXPECT_EQ(find_architecture("unknown"), nullptr);
}

TEST(Arch, SchedulabilityRules) {
  const auto& arch = simx86();
  const EventDef* fixed = arch.find_event("INSTR_RETIRED_ANY");
  const EventDef* pmc = arch.find_event("L1D_REPLACEMENT");
  const EventDef* uncore = arch.find_event("CAS_COUNT_RD");
  EXPECT_TRUE(arch.schedulable(*fixed, *arch.find_slot("FIXC0")));
  EXPECT_FALSE(arch.schedulable(*fixed, *arch.find_slot("PMC0")));
  EXPECT_TRUE(arch.schedulable(*pmc, *arch.find_slot("PMC3")));
  EXPECT_FALSE(arch.schedulable(*pmc, *arch.find_slot("MBOX0C0")));
  EXPECT_TRUE(arch.schedulable(*uncore, *arch.find_slot("MBOX0C1")));
}

// ---------------------------------------------------------------- groups

TEST(PerfGroupTest, SanitizeFieldKeys) {
  EXPECT_EQ(sanitize_field_key("DP [MFLOP/s]"), "dp_mflop_per_s");
  EXPECT_EQ(sanitize_field_key("Runtime (RDTSC) [s]"), "runtime_rdtsc_s");
  EXPECT_EQ(sanitize_field_key("Vectorization ratio [%]"), "vectorization_ratio");
  EXPECT_EQ(sanitize_field_key("CPI"), "cpi");
  EXPECT_EQ(sanitize_field_key("Memory bandwidth [MBytes/s]"),
            "memory_bandwidth_mbytes_per_s");
}

// The parameter names the architecture rather than pointing at it: gtest
// prints the parameter into the listed test name, and a pointer would make
// that name change with every run of the binary.
class BuiltinGroups
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

const CounterArchitecture& arch_named(const std::string& arch_name) {
  return arch_name == simx86().name ? simx86() : simx86_small();
}

TEST_P(BuiltinGroups, ParseAndValidate) {
  const auto& [name, arch_name] = GetParam();
  const auto text = builtin_group_text(name);
  ASSERT_FALSE(text.empty());
  auto group = PerfGroup::parse(name, text, arch_named(arch_name));
  ASSERT_TRUE(group.ok()) << group.message();
  EXPECT_FALSE(group->short_description().empty());
  EXPECT_FALSE(group->events().empty());
  EXPECT_FALSE(group->metrics().empty());
  EXPECT_FALSE(group->long_description().empty());
  for (const auto& m : group->metrics()) {
    EXPECT_FALSE(m.field_key.empty());
  }
}

std::vector<std::tuple<std::string, std::string>> all_group_arch_combos() {
  std::vector<std::tuple<std::string, std::string>> out;
  for (const auto& name : builtin_group_names()) {
    out.emplace_back(name, simx86().name);
    out.emplace_back(name, simx86_small().name);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllGroupsBothArchs, BuiltinGroups,
                         ::testing::ValuesIn(all_group_arch_combos()),
                         [](const auto& param_info) {
                           return std::get<0>(param_info.param) + "_" +
                                  (std::get<1>(param_info.param) == simx86().name
                                       ? "simx86"
                                       : "simx86small");
                         });

TEST(PerfGroupTest, ParseRejectsInvalid) {
  const auto& arch = simx86();
  // Unknown slot.
  EXPECT_FALSE(PerfGroup::parse("X", "EVENTSET\nPMC9 INSTR_RETIRED_ANY\nMETRICS\nx time\n",
                                arch)
                   .ok());
  // Unknown event.
  EXPECT_FALSE(PerfGroup::parse("X", "EVENTSET\nPMC0 NOPE\nMETRICS\nx time\n", arch).ok());
  // Not schedulable (fixed event on PMC).
  EXPECT_FALSE(
      PerfGroup::parse("X", "EVENTSET\nPMC0 INSTR_RETIRED_ANY\nMETRICS\nx time\n", arch).ok());
  // Duplicate slot.
  EXPECT_FALSE(PerfGroup::parse(
                   "X", "EVENTSET\nPMC0 L1D_REPLACEMENT\nPMC0 L2_LINES_IN_ALL\nMETRICS\nx time\n",
                   arch)
                   .ok());
  // Metric references unassigned counter.
  EXPECT_FALSE(
      PerfGroup::parse("X", "EVENTSET\nPMC0 L1D_REPLACEMENT\nMETRICS\nx PMC1/time\n", arch)
          .ok());
  // Empty sections.
  EXPECT_FALSE(PerfGroup::parse("X", "METRICS\nx time\n", arch).ok());
  EXPECT_FALSE(PerfGroup::parse("X", "EVENTSET\nPMC0 L1D_REPLACEMENT\n", arch).ok());
}

TEST(GroupRegistryTest, BuiltinsPreloaded) {
  GroupRegistry registry(simx86());
  EXPECT_EQ(registry.names().size(), builtin_group_names().size());
  ASSERT_NE(registry.find("FLOPS_DP"), nullptr);
  EXPECT_EQ(registry.find("FLOPS_DP")->measurement(), "likwid_flops_dp");
  EXPECT_EQ(registry.find("nope"), nullptr);
  // Custom group can be added.
  EXPECT_TRUE(registry
                  .add("CUSTOM",
                       "SHORT c\nEVENTSET\nFIXC0 INSTR_RETIRED_ANY\nMETRICS\nInstr FIXC0\nLONG\nx")
                  .ok());
  EXPECT_NE(registry.find("CUSTOM"), nullptr);
}

// ---------------------------------------------------------------- simulator

TEST(Simulator, CalibratedCounts) {
  const auto& arch = simx86();
  CounterSimulator sim(arch, 1, /*noise_sigma=*/0.0);
  NodeLoad load = idle_load(arch);
  // One fully busy core at nominal clock, IPC 2, 1 GFLOP/s scalar DP.
  load.cores[0].clock_ghz = arch.nominal_clock_ghz;
  load.cores[0].active_fraction = 1.0;
  load.cores[0].ipc = 2.0;
  load.cores[0].flops_dp_per_sec = 1e9;
  load.cores[0].dp_simd_fraction = 0.0;
  load.sockets[0].mem_read_bw_bytes_per_sec = 6.4e9;
  load.sockets[0].package_power_watts = 100.0;
  sim.advance(load, 2 * kNanosPerSecond);

  const double cycles = static_cast<double>(sim.read(EventKind::kCoreCyclesUnhalted, 0));
  EXPECT_NEAR(cycles, 2 * arch.nominal_clock_ghz * 1e9, 1e3);
  EXPECT_NEAR(static_cast<double>(sim.read(EventKind::kInstructionsRetired, 0)), 2 * cycles,
              1e3);
  EXPECT_NEAR(static_cast<double>(sim.read(EventKind::kFlopsScalarDp, 0)), 2e9, 1.0);
  EXPECT_EQ(sim.read(EventKind::kFlopsPacked256Dp, 0), 0u);
  // 6.4 GB/s read = 1e8 cachelines/s * 2 s.
  EXPECT_NEAR(static_cast<double>(sim.read(EventKind::kCasReadUncore, 0)), 2e8, 10.0);
  // Energy: 200 J / unit.
  const double units = static_cast<double>(sim.read(EventKind::kPkgEnergyUncore, 0));
  EXPECT_NEAR(units * arch.energy_unit_joules, 200.0, 0.01);
}

TEST(Simulator, CountsAreMonotone) {
  const auto& arch = simx86_small();
  CounterSimulator sim(arch, 2, 0.05);
  NodeLoad load = idle_load(arch);
  load.cores[0].active_fraction = 0.9;
  load.cores[0].clock_ghz = 3.0;
  load.cores[0].ipc = 1.5;
  std::uint64_t prev = 0;
  for (int i = 0; i < 20; ++i) {
    sim.advance(load, kNanosPerSecond);
    const std::uint64_t cur = sim.read(EventKind::kInstructionsRetired, 0);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(Simulator, WrapDelta) {
  const std::uint64_t mask = CounterSimulator::kCoreCounterMask;
  EXPECT_EQ(CounterSimulator::wrap_delta(100, 40, mask), 60u);
  // Wrapped: before near the top, now small.
  EXPECT_EQ(CounterSimulator::wrap_delta(5, mask - 4, mask), 10u);
  EXPECT_EQ(CounterSimulator::wrap_delta(7, 7, mask), 0u);
}

TEST(Simulator, EnergyCounterWrapsAt32Bits) {
  const auto& arch = simx86();
  CounterSimulator sim(arch, 3, 0.0);
  NodeLoad load = idle_load(arch);
  // Huge power so the 32-bit energy counter wraps quickly:
  // 2^32 units * 6.1e-5 J/unit = ~262 kJ; at 100 kW that is ~2.6 s.
  load.sockets[0].package_power_watts = 1e5;
  std::uint64_t before = sim.read(EventKind::kPkgEnergyUncore, 0);
  double total_joules = 0;
  for (int i = 0; i < 10; ++i) {
    sim.advance(load, kNanosPerSecond);
    const std::uint64_t now = sim.read(EventKind::kPkgEnergyUncore, 0);
    EXPECT_LE(now, CounterSimulator::kEnergyCounterMask);
    total_joules += static_cast<double>(CounterSimulator::wrap_delta(
                        now, before, CounterSimulator::kEnergyCounterMask)) *
                    arch.energy_unit_joules;
    before = now;
  }
  // Despite several wraps the reconstructed energy is right: 1 MJ.
  EXPECT_NEAR(total_joules, 1e6, 1e3);
}

TEST(Simulator, NoiseAveragesOut) {
  const auto& arch = simx86_small();
  CounterSimulator sim(arch, 4, 0.05);
  NodeLoad load = idle_load(arch);
  load.cores[0].active_fraction = 1.0;
  load.cores[0].clock_ghz = 3.5;
  load.cores[0].ipc = 1.0;
  for (int i = 0; i < 100; ++i) sim.advance(load, kNanosPerSecond);
  const double cycles = static_cast<double>(sim.read(EventKind::kCoreCyclesUnhalted, 0));
  EXPECT_NEAR(cycles, 100 * 3.5e9, 0.02 * 100 * 3.5e9);
}

// ---------------------------------------------------------------- monitor

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : registry_(simx86()), sim_(simx86(), 7, 0.0) {}

  NodeLoad busy_load(double flops_frac, double bw_frac) {
    const auto& arch = simx86();
    NodeLoad load = idle_load(arch);
    for (auto& core : load.cores) {
      core.clock_ghz = arch.nominal_clock_ghz;
      core.active_fraction = 1.0;
      core.ipc = 2.0;
      core.flops_dp_per_sec = flops_frac * arch.peak_dp_flops_per_core;
      core.dp_simd_fraction = 0.8;
      core.branch_per_instr = 0.1;
      core.branch_miss_ratio = 0.02;
    }
    for (auto& socket : load.sockets) {
      socket.mem_read_bw_bytes_per_sec = bw_frac * arch.peak_mem_bw_per_socket * 0.7;
      socket.mem_write_bw_bytes_per_sec = bw_frac * arch.peak_mem_bw_per_socket * 0.3;
      socket.package_power_watts = 120;
    }
    return load;
  }

  GroupRegistry registry_;
  CounterSimulator sim_;
};

TEST_F(MonitorTest, DerivedMetricsMatchLoad) {
  HpmMonitor::Options opts;
  opts.groups = {"MEM_DP"};
  opts.hostname = "h1";
  auto monitor = HpmMonitor::create(registry_, sim_, opts);
  ASSERT_TRUE(monitor.ok()) << monitor.message();

  const NodeLoad load = busy_load(0.25, 0.5);
  util::TimeNs now = 0;
  monitor->sample(now);  // baseline
  for (int i = 0; i < 10; ++i) {
    sim_.advance(load, kNanosPerSecond);
    now += kNanosPerSecond;
  }
  const auto points = monitor->sample(now);
  ASSERT_EQ(points.size(), 1u);
  const auto& p = points[0];
  EXPECT_EQ(p.measurement, "likwid_mem_dp");
  EXPECT_EQ(p.tag("hostname"), "h1");
  EXPECT_EQ(p.timestamp, now);

  const auto& arch = simx86();
  // DP MFLOP/s: 0.25 * peak/core * 16 cores / 1e6.
  const double expect_mflops =
      0.25 * arch.peak_dp_flops_per_core * arch.total_cores() / 1e6;
  EXPECT_NEAR(p.field("dp_mflop_per_s")->as_double(), expect_mflops, expect_mflops * 0.01);
  // Memory bandwidth: 0.5 * peak/socket * 2 sockets / 1e6 MB/s.
  const double expect_bw = 0.5 * arch.peak_mem_bw_per_socket * arch.sockets / 1e6;
  EXPECT_NEAR(p.field("memory_bandwidth_mbytes_per_s")->as_double(), expect_bw,
              expect_bw * 0.01);
  EXPECT_NEAR(p.field("cpi")->as_double(), 0.5, 0.01);
  EXPECT_NEAR(p.field("ipc")->as_double(), 2.0, 0.02);
  EXPECT_NEAR(p.field("runtime_rdtsc_s")->as_double(), 10.0, 1e-9);
  EXPECT_NEAR(p.field("clock_mhz")->as_double(), arch.nominal_clock_ghz * 1e3, 1.0);
}

TEST_F(MonitorTest, MultiplexingRotatesGroups) {
  HpmMonitor::Options opts;
  opts.groups = {"FLOPS_DP", "MEM", "BRANCH"};
  opts.hostname = "h1";
  auto monitor = HpmMonitor::create(registry_, sim_, opts);
  ASSERT_TRUE(monitor.ok());
  EXPECT_EQ(monitor->active_group(), "FLOPS_DP");
  util::TimeNs now = 0;
  monitor->sample(now);
  std::vector<std::string> seen;
  for (int i = 0; i < 6; ++i) {
    sim_.advance(busy_load(0.1, 0.1), kNanosPerSecond);
    now += kNanosPerSecond;
    const auto points = monitor->sample(now);
    ASSERT_EQ(points.size(), 1u);
    seen.push_back(points[0].measurement);
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"likwid_flops_dp", "likwid_mem", "likwid_branch",
                                            "likwid_flops_dp", "likwid_mem",
                                            "likwid_branch"}));
}

TEST_F(MonitorTest, PerSocketFieldsExposeNumaImbalance) {
  HpmMonitor::Options opts;
  opts.groups = {"MEM_DP"};
  opts.hostname = "h1";
  opts.per_socket_fields = true;
  auto monitor = HpmMonitor::create(registry_, sim_, opts);
  ASSERT_TRUE(monitor.ok());

  // Socket 0 does all the flops and memory traffic; socket 1 idles.
  const auto& arch = simx86();
  NodeLoad load = idle_load(arch);
  for (int c = 0; c < arch.cores_per_socket; ++c) {
    auto& core = load.cores[static_cast<std::size_t>(c)];
    core.clock_ghz = arch.nominal_clock_ghz;
    core.active_fraction = 1.0;
    core.ipc = 2.0;
    core.flops_dp_per_sec = 0.4 * arch.peak_dp_flops_per_core;
    core.dp_simd_fraction = 0.8;
  }
  load.sockets[0].mem_read_bw_bytes_per_sec = 30e9;
  load.sockets[0].mem_write_bw_bytes_per_sec = 10e9;

  util::TimeNs now = 0;
  monitor->sample(now);
  sim_.advance(load, kNanosPerSecond);
  now += kNanosPerSecond;
  const auto points = monitor->sample(now);
  // One node point + one per socket.
  ASSERT_EQ(points.size(), 3u);
  EXPECT_FALSE(points[0].has_tag("socket"));
  EXPECT_EQ(points[1].tag("socket"), "0");
  EXPECT_EQ(points[2].tag("socket"), "1");

  const double s0_flops = points[1].field("dp_mflop_per_s")->as_double();
  const double s1_flops = points[2].field("dp_mflop_per_s")->as_double();
  const double node_flops = points[0].field("dp_mflop_per_s")->as_double();
  EXPECT_GT(s0_flops, 100 * std::max(s1_flops, 1.0));  // all work on socket 0
  EXPECT_NEAR(node_flops, s0_flops + s1_flops, node_flops * 0.01);
  const double s0_bw = points[1].field("memory_bandwidth_mbytes_per_s")->as_double();
  const double s1_bw = points[2].field("memory_bandwidth_mbytes_per_s")->as_double();
  EXPECT_NEAR(s0_bw, 40e3, 40e3 * 0.02);
  EXPECT_LT(s1_bw, 0.05 * s0_bw);
}

TEST_F(MonitorTest, UnknownGroupRejected) {
  HpmMonitor::Options opts;
  opts.groups = {"NOT_A_GROUP"};
  EXPECT_FALSE(HpmMonitor::create(registry_, sim_, opts).ok());
  opts.groups = {};
  EXPECT_FALSE(HpmMonitor::create(registry_, sim_, opts).ok());
}

TEST_F(MonitorTest, EnergyGroupReportsJoules) {
  HpmMonitor::Options opts;
  opts.groups = {"ENERGY"};
  opts.hostname = "h1";
  auto monitor = HpmMonitor::create(registry_, sim_, opts);
  ASSERT_TRUE(monitor.ok());
  util::TimeNs now = 0;
  monitor->sample(now);
  NodeLoad load = busy_load(0.1, 0.1);
  for (auto& s : load.sockets) s.package_power_watts = 100.0;
  for (int i = 0; i < 5; ++i) {
    sim_.advance(load, kNanosPerSecond);
    now += kNanosPerSecond;
  }
  const auto points = monitor->sample(now);
  ASSERT_EQ(points.size(), 1u);
  // 2 sockets * 100 W * 5 s = 1000 J.
  EXPECT_NEAR(points[0].field("energy_j")->as_double(), 1000.0, 1.0);
  EXPECT_NEAR(points[0].field("power_w")->as_double(), 200.0, 0.5);
}

TEST_F(MonitorTest, VectorizationRatioReflectsSimdMix) {
  HpmMonitor::Options opts;
  opts.groups = {"FLOPS_DP"};
  auto monitor = HpmMonitor::create(registry_, sim_, opts);
  ASSERT_TRUE(monitor.ok());
  util::TimeNs now = 0;
  monitor->sample(now);
  // 80% of flops from 256-bit packed: instruction mix is
  // packed = 0.8/4, scalar = 0.2 -> ratio = 0.2/(0.2+0.2) = 50%.
  sim_.advance(busy_load(0.2, 0.1), kNanosPerSecond);
  now += kNanosPerSecond;
  const auto points = monitor->sample(now);
  EXPECT_NEAR(points[0].field("vectorization_ratio")->as_double(), 50.0, 0.5);
}

}  // namespace
}  // namespace lms::hpm
