// EDMS benchmark: runs one workload for a fixed wall-clock budget and
// prints its metrics. Usage:
//
//   edms_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file>]
//
// --trace 0 prints the end-to-end metrics of untraced rounds; --trace 1
// alternates untraced and traced rounds and prints the per-layer metrics of
// the traced ones plus the tracing overhead. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is
// non-zero when the correctness gate fails.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s reports their median.
constexpr int kSetupRepeats = 9;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && have_seed &&
         args.seconds > 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    for (char& c : s) {
      if (c == '"' || c == '\\') c = ' ';
    }
    return s;
  }
#endif
  return "unknown";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// End-to-end metrics of one untraced round.
std::map<std::string, double> EndToEnd(const RoundResult& r) {
  const auto& s = r.stats;
  std::map<std::string, double> m;
  m["offers_per_s"] = static_cast<double>(r.completed) / r.wall_s;
  m["accept_p50_ms"] = Percentile(r.accept_ms, 50.0);
  m["accept_p99_ms"] = Percentile(r.accept_ms, 99.0);
  m["assign_p50_ms"] = Percentile(r.assign_ms, 50.0);
  m["assign_p99_ms"] = Percentile(r.assign_ms, 99.0);
  m["imbalance_reduction_pct"] =
      s.imbalance_before_kwh > 0.0
          ? 100.0 * (s.imbalance_before_kwh - s.imbalance_after_kwh) /
                s.imbalance_before_kwh
          : 0.0;
  m["executed_frac"] =
      r.accepted > 0
          ? static_cast<double>(r.executed) / static_cast<double>(r.accepted)
          : 0.0;
  return m;
}

const std::map<std::string, std::string>& Units() {
  static const std::map<std::string, std::string> kUnits = {
      {"setup_s", "s"},
      {"offers_per_s", "1/s"},
      {"accept_p50_ms", "ms"},
      {"accept_p99_ms", "ms"},
      {"assign_p50_ms", "ms"},
      {"assign_p99_ms", "ms"},
      {"peak_rss_mb", "MB"},
      {"imbalance_reduction_pct", "%"},
      {"executed_frac", "fraction"},
      {"edms.submit.busy_s", "s"},
      {"edms.submit.calls", "count"},
      {"edms.submit.errors", "count"},
      {"edms.advance.busy_s", "s"},
      {"edms.advance.self_s", "s"},
      {"edms.advance.max_ms", "ms"},
      {"edms.poll.busy_s", "s"},
      {"edms.poll.events", "count"},
      {"edms.execute.busy_s", "s"},
      {"edms.execute.failures", "count"},
      {"edms.expired_in_pipeline", "count"},
      {"edms.executions_timed_out", "count"},
      {"edms.lifecycle_retained", "count"},
      {"storage.facts_retained", "count"},
      {"edms.baseline.busy_s", "s"},
      {"scheduling.runs", "count"},
      {"scheduling.busy_s", "s"},
      {"scheduling.share_pct", "%"},
      {"scheduling.macros", "count"},
      {"scheduling.iterations", "count"},
      {"scheduling.iterations_per_s", "1/s"},
      {"aggregation.offers_per_macro", "ratio"},
      {"negotiation.reject_frac", "fraction"},
      {"runtime.strand_tasks", "count"},
      {"runtime.strand_busy_s", "s"},
      {"runtime.queue_wait_max_ms", "ms"},
      {"runtime.intake_depth_peak", "count"},
      {"runtime.straggler_ms", "ms"},
      {"runtime.steals", "count"},
      {"runtime.lag_p99_ms", "ms"},
      {"trace.coverage_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return kUnits;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }

  // Set-up: input generation plus engine/runtime construction, repeated.
  std::vector<double> setup_s;
  Inputs inputs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t start = NowNs();
    inputs = MakeInputs(*spec, args.seed);
    const double gen_s = static_cast<double>(NowNs() - start) * 1e-9;
    setup_s.push_back(gen_s + ConstructSystem(*spec, inputs));
  }

  // A warm-up round (allocator arenas, page faults, caches) that the gate
  // checks but the metrics skip, then rounds until the time budget is spent:
  // at least two more, so that the repeat check always has a pair and a
  // traced run has one round of each kind.
  std::vector<RoundResult> rounds;
  const int64_t start = NowNs();
  rounds.push_back(RunRound(*spec, inputs, nullptr));
  rounds.front().warmup = true;
  const auto budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  while (rounds.size() < 3 || NowNs() - start < budget_ns) {
    const bool traced = args.trace && rounds.size() % 2 == 0;
    Tracer tracer;
    rounds.push_back(RunRound(*spec, inputs, traced ? &tracer : nullptr));
  }

  // Correctness gate.
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  const std::string reference = Fingerprint(rounds.front());
  for (size_t i = 0; i < rounds.size(); ++i) {
    RoundResult& r = rounds[i];
    if (spec->loop == Loop::kEngine && Fingerprint(r) != reference) {
      r.violation += "outcome differs from round 0 (" + Fingerprint(r) + ")";
      r.failed_offers = r.submitted;
    }
    if (r.failed_offers > 0 && r.violation.empty()) {
      r.violation = "offers without exactly one outcome";
    }
    if (!r.violation.empty()) {
      correct = false;
      std::cerr << "round " << i << (r.traced ? " (traced)" : "")
                << " failed the correctness gate: " << r.violation << "\n";
    }
    attempted += r.submitted;
    failed += r.failed_offers;
  }

  std::map<std::string, double> metrics;
  std::vector<double> plain_rate;
  std::vector<double> traced_rate;
  std::map<std::string, std::vector<double>> samples;
  for (const RoundResult& r : rounds) {
    if (r.warmup) continue;
    const double rate = static_cast<double>(r.completed) / r.wall_s;
    (r.traced ? traced_rate : plain_rate).push_back(rate);
    const std::map<std::string, double> per_round =
        r.traced ? r.layers : EndToEnd(r);
    if (r.traced != args.trace) continue;
    for (const auto& [name, value] : per_round) samples[name].push_back(value);
  }
  for (const auto& [name, values] : samples) metrics[name] = Median(values);
  if (args.trace) {
    const double plain = Median(plain_rate);
    metrics["trace.overhead_pct"] =
        plain > 0.0 ? 100.0 * (plain - Median(traced_rate)) / plain : 0.0;
  } else {
    metrics["setup_s"] = Median(setup_s);
    metrics["peak_rss_mb"] = PeakRssMb();
  }

  if (args.trace && !args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    for (size_t i = 0; i < rounds.size(); ++i) {
      if (rounds[i].traced) {
        WriteSpans(out, static_cast<int>(i), rounds[i].origin_ns,
                   rounds[i].spans);
      }
    }
    if (!out) std::cerr << "cannot write " << args.trace_out << "\n";
  }

  // Human-readable record, then the result line.
  std::printf(
      "machine: {\"cpu_model\": \"%s\", \"hardware_concurrency\": %u, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"workload\": \"%s\", "
      "\"threads\": %zu, \"shards\": %zu, \"cadence_ms\": %.3f, "
      "\"seed\": %llu}\n",
      CpuModel().c_str(), std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, __VERSION__, spec->name.c_str(),
      spec->loop == Loop::kEngine ? size_t{1} : spec->workers + 2,
      spec->shards, spec->cadence_ms,
      static_cast<unsigned long long>(args.seed));
  std::printf("rounds: %zu (%zu untraced, %zu traced), offers per round: %lld\n",
              rounds.size(), plain_rate.size(), traced_rate.size(),
              static_cast<long long>(rounds.front().submitted));
  std::printf("round wall s:");
  for (const RoundResult& r : rounds) {
    std::printf(" %.3f%s", r.wall_s, r.warmup ? "(warm-up)" : r.traced ? "(traced)" : "");
  }
  std::printf("\n");
  for (size_t i = 0; i < rounds.size(); ++i) {
    if (rounds[i].warmup || rounds[i].traced) continue;
    std::printf("round %zu:", i);
    for (const auto& [name, value] : EndToEnd(rounds[i])) {
      std::printf(" %s=%.6g", name.c_str(), value);
    }
    std::printf("\n");
  }
  std::printf("outcome: %s\n", reference.c_str());
  std::printf("failed_frac: %.6f (%lld of %lld offers)\n",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0,
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  for (const auto& [name, value] : metrics) {
    std::printf("  %-32s %16.6f %s\n", name.c_str(), value,
                Units().at(name).c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            Units().at(name) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::cerr << "usage: edms_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n";
    return 2;
  }
  return perfbench::Run(args);
}
