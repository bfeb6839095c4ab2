// The benchmark's three workloads and the loops that run one round of each
// through the public EDMS API. See README.md for why each exists.
#ifndef MIRABEL_PERFBENCH_WORKLOADS_H_
#define MIRABEL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "aggregation/aggregation_params.h"
#include "edms/edms_engine.h"
#include "flexoffer/flex_offer.h"
#include "trace.h"

namespace perfbench {

enum class Loop {
  /// One EdmsEngine driven as fast as it answers (closed loop).
  kEngine,
  /// One ShardedEdmsRuntime fed by a paced producer thread (open loop).
  kShardedOpenLoop,
};

struct WorkloadSpec {
  std::string name;
  Loop loop = Loop::kEngine;
  int64_t offers = 0;
  /// Days over which the offers' creation times spread.
  int days = 2;
  /// All offers in one SubmitOffers() at slice 0, instead of one batch per
  /// creation slice.
  bool bulk = false;
  mirabel::aggregation::AggregationParams params;
  /// Bin-packer member cap; 0 leaves the bin-packer off.
  int64_t bin_packer_max_offers = 0;
  /// Greedy iteration cap per gate (the scheduler budget is 0, so this
  /// alone bounds the scheduling work and keeps it reproducible).
  int scheduler_max_iterations = 0;
  size_t shards = 1;
  size_t workers = 0;
  /// Wall-clock length of one slice in the open loop.
  double cadence_ms = 0.0;
};

const std::vector<WorkloadSpec>& Workloads();
/// Null when no workload has that name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Everything the program receives, generated from the seed.
struct Inputs {
  /// In submission order.
  std::vector<mirabel::flexoffer::FlexOffer> offers;
  struct Batch {
    mirabel::flexoffer::TimeSlice slice = 0;
    size_t begin = 0;
    size_t end = 0;
  };
  std::vector<Batch> batches;
  /// Demand-minus-wind baseline imbalance per slice.
  std::vector<double> baseline_kwh;
  double scale = 1.0;
  /// Last slice the loop ticks; past it every offer is terminal.
  mirabel::flexoffer::TimeSlice end_slice = 0;
  uint64_t seed = 0;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// Builds (and tears down) the engine or runtime a round would use; returns
/// the construction time in seconds.
double ConstructSystem(const WorkloadSpec& spec, const Inputs& inputs);

struct RoundResult {
  bool traced = false;
  /// Untimed first round: gate-checked, excluded from the metrics.
  bool warmup = false;
  double wall_s = 0.0;
  int64_t submitted = 0;
  int64_t accepted = 0;
  int64_t rejected = 0;
  int64_t assigned = 0;
  int64_t executed = 0;
  int64_t expired = 0;
  /// Accepted offers with exactly one terminal event.
  int64_t completed = 0;
  /// Offers whose call errored or that got zero or several outcomes.
  int64_t failed_offers = 0;
  int64_t events_polled = 0;
  int64_t submit_calls = 0;
  int64_t submit_errors = 0;
  int64_t advance_errors = 0;
  int64_t execute_failures = 0;
  std::vector<double> accept_ms;
  std::vector<double> assign_ms;
  std::vector<double> lag_ms;
  mirabel::edms::EngineStats stats;
  int64_t lifecycle_retained = 0;
  int64_t facts_retained = 0;
  /// Empty when the correctness gate passed.
  std::string violation;
  /// Per-layer metrics (traced rounds only).
  std::map<std::string, double> layers;
  std::vector<Span> spans;
  int64_t origin_ns = 0;
};

/// Runs one full lifecycle round on a fresh engine/runtime. A non-null
/// tracer records spans and fills RoundResult::layers.
RoundResult RunRound(const WorkloadSpec& spec, const Inputs& inputs,
                     Tracer* tracer);

/// Outcome summary that must repeat bit for bit across rounds of a
/// deterministic workload (event counts, imbalance, executed fraction).
std::string Fingerprint(const RoundResult& r);

/// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> values, double pct);

}  // namespace perfbench

#endif  // MIRABEL_PERFBENCH_WORKLOADS_H_
