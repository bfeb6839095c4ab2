#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include "datagen/energy_series_generator.h"
#include "datagen/flex_offer_generator.h"
#include "edms/baseline_provider.h"
#include "edms/scheduler_registry.h"
#include "edms/sharded_runtime.h"
#include "edms/worker_pool.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/scheduler.h"

namespace perfbench {

using mirabel::Result;
using mirabel::Status;
using mirabel::flexoffer::FlexOffer;
using mirabel::flexoffer::kSlicesPerDay;
using mirabel::flexoffer::TimeSlice;
namespace edms = mirabel::edms;
namespace scheduling = mirabel::scheduling;
namespace aggregation = mirabel::aggregation;

namespace {

constexpr int kGatePeriod = 16;
constexpr int kHorizon = 2 * kSlicesPerDay;

// ---------------------------------------------------------------------------
// Seam wrappers. The engine calls both at every gate; in the sharded runtime
// they run on pool workers, so they only touch atomics and the tracer.

struct SeamCounters {
  std::atomic<int64_t> runs{0};
  std::atomic<int64_t> iterations{0};
  std::atomic<int64_t> macros{0};
};

class TimedScheduler : public scheduling::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<scheduling::Scheduler> inner, Tracer* tracer,
                 SeamCounters* counters)
      : inner_(std::move(inner)), tracer_(tracer), counters_(counters) {}

  std::string Name() const override { return inner_->Name(); }

  Result<scheduling::SchedulingResult> Run(
      const scheduling::SchedulingProblem& problem,
      const scheduling::SchedulerOptions& options) override {
    return inner_->Run(problem, options);
  }

  Result<scheduling::SchedulingResult> RunCompiled(
      const scheduling::CompiledProblem& compiled,
      const scheduling::SchedulerOptions& options) override {
    Tracer::Scope span(tracer_, "scheduling.run", tracer_->gate_trace(),
                       tracer_->gate_span());
    Result<scheduling::SchedulingResult> r =
        inner_->RunCompiled(compiled, options);
    counters_->runs.fetch_add(1, std::memory_order_relaxed);
    counters_->macros.fetch_add(static_cast<int64_t>(compiled.num_offers),
                                std::memory_order_relaxed);
    if (r.ok()) {
      counters_->iterations.fetch_add(r.value().iterations,
                                      std::memory_order_relaxed);
    }
    return r;
  }

 private:
  std::unique_ptr<scheduling::Scheduler> inner_;
  Tracer* tracer_;
  SeamCounters* counters_;
};

class TimedBaseline : public edms::BaselineProvider {
 public:
  TimedBaseline(std::shared_ptr<edms::BaselineProvider> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  Result<std::vector<double>> Baseline(TimeSlice start, int length) override {
    Tracer::Scope span(tracer_, "edms.baseline", tracer_->gate_trace(),
                       tracer_->gate_span());
    return inner_->Baseline(start, length);
  }

 private:
  std::shared_ptr<edms::BaselineProvider> inner_;
  Tracer* tracer_;
};

edms::EdmsEngine::Config EngineConfig(const WorkloadSpec& spec,
                                      const Inputs& in) {
  edms::EdmsEngine::Config config;
  config.actor = 100;
  config.negotiate = true;
  config.aggregation.params = spec.params;
  if (spec.bin_packer_max_offers > 0) {
    aggregation::BinPackerBounds bounds;
    bounds.max_offers = spec.bin_packer_max_offers;
    config.aggregation.bin_packer = bounds;
  }
  config.gate_period = kGatePeriod;
  config.horizon = kHorizon;
  config.scheduler_budget_s = 0.0;
  config.scheduler_max_iterations = spec.scheduler_max_iterations;
  config.seed = in.seed;
  config.baseline =
      std::make_shared<edms::VectorBaselineProvider>(in.baseline_kwh);
  config.max_buy_kwh = 2.0 * in.scale;
  config.max_sell_kwh = 2.0 * in.scale;
  return config;
}

void WrapSeams(edms::EdmsEngine::Config& config, Tracer* tracer,
               SeamCounters* counters) {
  edms::SchedulerFactory inner = config.scheduler_factory
                                     ? config.scheduler_factory
                                     : edms::DefaultSchedulerFactory();
  config.scheduler_factory = [inner, tracer, counters] {
    return std::make_unique<TimedScheduler>(inner(), tracer, counters);
  };
  config.baseline = std::make_shared<TimedBaseline>(config.baseline, tracer);
}

// ---------------------------------------------------------------------------
// Per-offer outcome ledger: latency samples, execution metering and the
// correctness gate's per-offer counts.

struct Metering {
  uint64_t id = 0;
  mirabel::flexoffer::ActorId owner = 0;
  double energy_kwh = 0.0;
};

class Ledger {
 public:
  Ledger(size_t num_offers, TimeSlice end_slice)
      : counts_(num_offers + 1),
        meter_(static_cast<size_t>(end_slice) + 1) {}

  /// `accept_due[s]` / `assign_due[s]`: when the submit of slice s / the
  /// Advance(s) was due.
  void Absorb(const std::vector<edms::Event>& events, int64_t polled_ns,
              const std::vector<int64_t>& accept_due,
              const std::vector<int64_t>& assign_due, RoundResult& r) {
    r.events_polled += static_cast<int64_t>(events.size());
    for (const edms::Event& event : events) {
      if (const auto* e = std::get_if<edms::OfferAccepted>(&event)) {
        if (Counts* c = Find(e->offer)) ++c->accepted;
        r.accept_ms.push_back(LatencyMs(polled_ns, accept_due, e->at));
      } else if (const auto* e = std::get_if<edms::OfferRejected>(&event)) {
        if (Counts* c = Find(e->offer)) ++c->rejected;
        r.accept_ms.push_back(LatencyMs(polled_ns, accept_due, e->at));
      } else if (const auto* e = std::get_if<edms::ScheduleAssigned>(&event)) {
        const auto& s = e->schedule;
        if (Counts* c = Find(s.offer_id)) ++c->assigned;
        r.assign_ms.push_back(LatencyMs(polled_ns, assign_due, e->at));
        double energy = 0.0;
        for (double kwh : s.energies_kwh) energy += kwh;
        const size_t end =
            static_cast<size_t>(s.start) + s.energies_kwh.size();
        if (end < meter_.size()) {
          meter_[end].push_back({s.offer_id, e->owner, energy});
        } else {
          ++unmetered_;
        }
      } else if (const auto* e = std::get_if<edms::OfferExecuted>(&event)) {
        if (Counts* c = Find(e->offer)) ++c->executed;
      } else if (const auto* e = std::get_if<edms::OfferExpired>(&event)) {
        if (Counts* c = Find(e->offer)) ++c->expired;
      }
    }
  }

  /// Schedules ending at `now`, to be metered at that slice.
  const std::vector<Metering>& DueAt(TimeSlice now) const {
    return meter_[static_cast<size_t>(now)];
  }

  /// Per-offer gate plus the event tallies; fills the counts of `r`.
  void Close(RoundResult& r) const {
    for (size_t id = 1; id < counts_.size(); ++id) {
      const Counts& c = counts_[id];
      r.accepted += c.accepted;
      r.rejected += c.rejected;
      r.assigned += c.assigned;
      r.executed += c.executed;
      r.expired += c.expired;
      const int terminal = c.executed + c.expired;
      const bool ok =
          (c.accepted == 1 && c.rejected == 0 && terminal == 1) ||
          (c.rejected == 1 && c.accepted == 0 && terminal == 0 &&
           c.assigned == 0);
      if (c.accepted == 1 && terminal == 1) ++r.completed;
      if (!ok) ++r.failed_offers;
    }
    if (unknown_ids_ > 0) {
      r.violation += "events for unknown offer ids; ";
    }
    if (unmetered_ > 0) {
      r.violation += "schedules ending after the last tick; ";
    }
  }

 private:
  struct Counts {
    uint8_t accepted = 0;
    uint8_t rejected = 0;
    uint8_t assigned = 0;
    uint8_t executed = 0;
    uint8_t expired = 0;
  };

  Counts* Find(uint64_t id) {
    if (id == 0 || id >= counts_.size()) {
      ++unknown_ids_;
      return nullptr;
    }
    return &counts_[id];
  }

  static double LatencyMs(int64_t polled_ns, const std::vector<int64_t>& due,
                          TimeSlice at) {
    const size_t s = static_cast<size_t>(std::max<TimeSlice>(at, 0));
    const int64_t from = s < due.size() ? due[s] : polled_ns;
    return static_cast<double>(polled_ns - from) * 1e-6;
  }

  std::vector<Counts> counts_;
  std::vector<std::vector<Metering>> meter_;
  int64_t unknown_ids_ = 0;
  int64_t unmetered_ = 0;
};

void Require(RoundResult& r, bool cond, const char* what) {
  if (!cond) {
    r.violation += what;
    r.violation += "; ";
  }
}

/// Event tallies against EngineStats and the lifecycle state counts.
void CheckTallies(RoundResult& r,
                  const std::vector<const edms::EdmsEngine*>& engines) {
  const edms::EngineStats& s = r.stats;
  int64_t state_counts[edms::kNumOfferStates] = {};
  for (const edms::EdmsEngine* engine : engines) {
    for (int i = 0; i < edms::kNumOfferStates; ++i) {
      state_counts[i] += static_cast<int64_t>(
          engine->lifecycle().CountInState(static_cast<edms::OfferState>(i)));
    }
    r.lifecycle_retained += static_cast<int64_t>(engine->lifecycle().size());
    r.facts_retained += static_cast<int64_t>(engine->store().num_flex_offers());
  }
  auto in_state = [&](edms::OfferState st) {
    return state_counts[static_cast<int>(st)];
  };
  Require(r, s.offers_received == r.submitted, "offers_received != submitted");
  Require(r, s.offers_accepted == r.accepted, "OfferAccepted != stats");
  Require(r, s.offers_rejected == r.rejected, "OfferRejected != stats");
  Require(r, s.micro_schedules_sent == r.assigned, "ScheduleAssigned != stats");
  Require(r, s.offers_executed == r.executed, "OfferExecuted != stats");
  Require(r, s.offers_expired_in_pipeline + s.executions_timed_out == r.expired,
          "OfferExpired != stats");
  Require(r, in_state(edms::OfferState::kExecuted) == r.executed,
          "OfferExecuted != lifecycle");
  Require(r, in_state(edms::OfferState::kExpired) == r.expired,
          "OfferExpired != lifecycle");
  Require(r, in_state(edms::OfferState::kRejected) == r.rejected,
          "OfferRejected != lifecycle");
  Require(r, r.submit_errors == 0 && r.advance_errors == 0 &&
                 r.execute_failures == 0 && s.metering_failures == 0 &&
                 s.intake_errors == 0 && s.offers_shed == 0,
          "API call failed");
  if (!r.violation.empty()) r.failed_offers = r.submitted;
}

/// Per-layer metrics of a traced round (see README.md for the list and the
/// end-to-end metric each one should move).
void FillLayers(RoundResult& r, std::vector<Span> spans,
                const SeamCounters& seams) {
  const std::map<std::string, LayerTime> lt = Summarize(spans);
  auto get = [&](const char* name) {
    auto it = lt.find(name);
    return it == lt.end() ? LayerTime{} : it->second;
  };
  const LayerTime submit = get("edms.submit");
  const LayerTime advance = get("edms.advance");
  const LayerTime poll = get("edms.poll");
  const LayerTime execute = get("edms.execute");
  const LayerTime sched = get("scheduling.run");
  const LayerTime baseline = get("edms.baseline");
  double self_total = 0.0;
  for (const auto& [name, t] : lt) self_total += t.self_s;

  const edms::EngineStats& s = r.stats;
  const int64_t iterations = seams.iterations.load();
  auto& m = r.layers;
  m["edms.submit.busy_s"] = submit.busy_s;
  m["edms.submit.calls"] = static_cast<double>(r.submit_calls);
  m["edms.submit.errors"] = static_cast<double>(r.submit_errors);
  m["edms.advance.busy_s"] = advance.busy_s;
  m["edms.advance.self_s"] = advance.self_s;
  m["edms.advance.max_ms"] = advance.max_s * 1e3;
  m["edms.poll.busy_s"] = poll.busy_s;
  m["edms.poll.events"] = static_cast<double>(r.events_polled);
  m["edms.execute.busy_s"] = execute.busy_s;
  m["edms.execute.failures"] =
      static_cast<double>(r.execute_failures + s.metering_failures);
  m["edms.expired_in_pipeline"] =
      static_cast<double>(s.offers_expired_in_pipeline);
  m["edms.executions_timed_out"] = static_cast<double>(s.executions_timed_out);
  m["edms.lifecycle_retained"] = static_cast<double>(r.lifecycle_retained);
  m["storage.facts_retained"] = static_cast<double>(r.facts_retained);
  m["edms.baseline.busy_s"] = baseline.busy_s;
  m["scheduling.runs"] = static_cast<double>(seams.runs.load());
  m["scheduling.busy_s"] = sched.busy_s;
  m["scheduling.share_pct"] = 100.0 * sched.busy_s / r.wall_s;
  m["scheduling.macros"] = static_cast<double>(seams.macros.load());
  m["scheduling.iterations"] = static_cast<double>(iterations);
  m["scheduling.iterations_per_s"] =
      sched.busy_s > 0.0 ? static_cast<double>(iterations) / sched.busy_s
                         : 0.0;
  m["aggregation.offers_per_macro"] =
      s.macros_scheduled > 0 ? static_cast<double>(s.micro_schedules_sent) /
                                   static_cast<double>(s.macros_scheduled)
                             : 0.0;
  m["negotiation.reject_frac"] =
      s.offers_received > 0 ? static_cast<double>(s.offers_rejected) /
                                  static_cast<double>(s.offers_received)
                            : 0.0;
  m["trace.coverage_pct"] = 100.0 * self_total / r.wall_s;
  // The runtime gauges exist only on the sharded workload; the engine
  // workloads report them as 0 so every run prints the same metric set.
  for (const char* name :
       {"runtime.strand_tasks", "runtime.strand_busy_s",
        "runtime.queue_wait_max_ms", "runtime.intake_depth_peak",
        "runtime.straggler_ms", "runtime.steals", "runtime.lag_p99_ms"}) {
    m.emplace(name, 0.0);
  }
  r.spans = std::move(spans);
}

void SleepUntilNs(int64_t t_ns) {
  const int64_t now = NowNs();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

// ---------------------------------------------------------------------------
// Closed loop: one engine, ticked slice by slice as fast as it answers.

RoundResult RunEngineRound(const WorkloadSpec& spec, const Inputs& in,
                           Tracer* tracer) {
  RoundResult r;
  r.traced = tracer != nullptr;
  edms::EdmsEngine::Config config = EngineConfig(spec, in);
  SeamCounters seams;
  if (tracer != nullptr) WrapSeams(config, tracer, &seams);
  edms::EdmsEngine engine(config);

  Ledger ledger(in.offers.size(), in.end_slice);
  const size_t slices = static_cast<size_t>(in.end_slice) + 1;
  std::vector<int64_t> accept_due(slices, 0);
  std::vector<int64_t> assign_due(slices, 0);
  const std::span<const FlexOffer> offers(in.offers);
  r.origin_ns = NowNs();
  size_t next_batch = 0;
  // One tick per slice, in AggregatingNode::OnTick's order: meter the
  // executions due, submit the slice's offers, advance, then poll once. An
  // offer's accept decision therefore waits behind a gate closing in the
  // same tick, as it does for a node's prosumers.
  for (TimeSlice now = 0; now <= in.end_slice; ++now) {
    const size_t s = static_cast<size_t>(now);
    const std::vector<Metering>& due = ledger.DueAt(now);
    if (!due.empty()) {
      Tracer::Scope span(tracer, "edms.execute", now);
      for (const Metering& m : due) {
        if (!engine.RecordExecution(m.id, now, m.energy_kwh).ok()) {
          ++r.execute_failures;
        }
      }
    }
    if (next_batch < in.batches.size() && in.batches[next_batch].slice == now) {
      const Inputs::Batch& b = in.batches[next_batch++];
      accept_due[s] = NowNs();
      Tracer::Scope span(tracer, "edms.submit", now);
      ++r.submit_calls;
      r.submitted += static_cast<int64_t>(b.end - b.begin);
      if (!engine.SubmitOffers(offers.subspan(b.begin, b.end - b.begin), now)
               .ok()) {
        ++r.submit_errors;
      }
    }
    assign_due[s] = NowNs();
    {
      Tracer::Scope span(tracer, "edms.advance", now);
      if (tracer != nullptr) tracer->SetGate(span.id(), now);
      if (!engine.Advance(now).ok()) ++r.advance_errors;
      if (tracer != nullptr) tracer->SetGate(-1, -1);
    }
    std::vector<edms::Event> events;
    {
      Tracer::Scope span(tracer, "edms.poll", now);
      events = engine.PollEvents();
    }
    ledger.Absorb(events, NowNs(), accept_due, assign_due, r);
  }
  r.wall_s = static_cast<double>(NowNs() - r.origin_ns) * 1e-9;

  ledger.Close(r);
  r.stats = engine.stats();
  CheckTallies(r, {&engine});
  if (tracer != nullptr) FillLayers(r, tracer->Take(), seams);
  return r;
}

// ---------------------------------------------------------------------------
// Open loop: a producer thread releases each slice's offers on a fixed
// wall-clock cadence while the control thread advances, polls and meters on
// the same cadence, half a slice later.

std::unique_ptr<edms::ShardedEdmsRuntime> MakeRuntime(
    const WorkloadSpec& spec, const Inputs& in, Tracer* tracer,
    SeamCounters* seams) {
  edms::WorkerPool::Options pool_options;
  pool_options.num_threads = spec.workers;
  edms::ShardedEdmsRuntime::Config rc;
  rc.num_shards = spec.shards;
  rc.engine = EngineConfig(spec, in);
  if (tracer != nullptr) WrapSeams(rc.engine, tracer, seams);
  rc.pool = std::make_shared<edms::WorkerPool>(pool_options);
  rc.streaming_intake = true;
  return std::make_unique<edms::ShardedEdmsRuntime>(rc);
}

RoundResult RunShardedRound(const WorkloadSpec& spec, const Inputs& in,
                            Tracer* tracer) {
  RoundResult r;
  r.traced = tracer != nullptr;
  SeamCounters seams;
  std::unique_ptr<edms::ShardedEdmsRuntime> runtime =
      MakeRuntime(spec, in, tracer, &seams);

  Ledger ledger(in.offers.size(), in.end_slice);
  const size_t slices = static_cast<size_t>(in.end_slice) + 1;
  const auto cadence_ns = static_cast<int64_t>(spec.cadence_ms * 1e6);
  r.origin_ns = NowNs() + cadence_ns;
  std::vector<int64_t> accept_due(slices);
  std::vector<int64_t> assign_due(slices);
  for (size_t s = 0; s < slices; ++s) {
    accept_due[s] = r.origin_ns + static_cast<int64_t>(s) * cadence_ns;
    assign_due[s] = accept_due[s] + cadence_ns / 2;
  }

  // Runtime gauges, sampled only when traced (Snapshot() is not free).
  std::atomic<int64_t> depth_peak{0};
  std::atomic<int64_t> wait_max_ns{0};
  auto sample = [&] {
    const edms::RuntimeSnapshot snap = runtime->Snapshot();
    int64_t depth = snap.intake_depth_batches;
    int64_t prev = depth_peak.load();
    while (depth > prev && !depth_peak.compare_exchange_weak(prev, depth)) {
    }
    for (const edms::ShardSnapshot& shard : snap.shards) {
      auto wait = static_cast<int64_t>(shard.last_queue_wait_s * 1e9);
      int64_t w = wait_max_ns.load();
      while (wait > w && !wait_max_ns.compare_exchange_weak(w, wait)) {
      }
    }
  };

  const std::span<const FlexOffer> offers(in.offers);
  int64_t submit_calls = 0;
  int64_t submit_errors = 0;
  int64_t submitted = 0;
  std::vector<double> lag_ms;
  {
    std::jthread producer([&] {
      for (const Inputs::Batch& b : in.batches) {
        const int64_t due = accept_due[static_cast<size_t>(b.slice)];
        SleepUntilNs(due);
        lag_ms.push_back(static_cast<double>(NowNs() - due) * 1e-6);
        Tracer::Scope span(tracer, "edms.submit", b.slice);
        ++submit_calls;
        submitted += static_cast<int64_t>(b.end - b.begin);
        if (!runtime->SubmitOffers(offers.subspan(b.begin, b.end - b.begin),
                                   b.slice)
                 .ok()) {
          ++submit_errors;
        }
        if (tracer != nullptr) sample();
      }
    });

    std::vector<edms::ShardedEdmsRuntime::MeterReading> readings;
    for (TimeSlice now = 0; now <= in.end_slice; ++now) {
      SleepUntilNs(assign_due[static_cast<size_t>(now)]);
      const std::vector<Metering>& due = ledger.DueAt(now);
      if (!due.empty()) {
        readings.clear();
        for (const Metering& m : due) {
          readings.push_back({m.owner, now, m.energy_kwh, m.id});
        }
        Tracer::Scope span(tracer, "edms.execute", now);
        runtime->RecordMeterReadings(readings);
      }
      {
        Tracer::Scope span(tracer, "edms.advance", now);
        if (tracer != nullptr) tracer->SetGate(span.id(), now);
        if (!runtime->Advance(now).ok()) ++r.advance_errors;
        if (tracer != nullptr) tracer->SetGate(-1, -1);
      }
      std::vector<edms::Event> events;
      {
        Tracer::Scope span(tracer, "edms.poll", now);
        events = runtime->PollEvents();
      }
      ledger.Absorb(events, NowNs(), accept_due, assign_due, r);
      if (tracer != nullptr) sample();
    }
  }
  // Offers the producer released after the last Advance would surface here
  // and fail the gate (they never reach a terminal event).
  if (!runtime->FlushIntake().ok()) ++r.advance_errors;
  ledger.Absorb(runtime->PollEvents(), NowNs(), accept_due, assign_due, r);
  r.wall_s = static_cast<double>(NowNs() - r.origin_ns) * 1e-9;
  r.submit_calls = submit_calls;
  r.submit_errors += submit_errors;
  r.submitted = submitted;
  r.lag_ms = std::move(lag_ms);

  ledger.Close(r);
  r.stats = runtime->stats();
  std::vector<const edms::EdmsEngine*> engines;
  for (size_t i = 0; i < runtime->num_shards(); ++i) {
    engines.push_back(&runtime->shard(i));
  }
  CheckTallies(r, engines);
  if (tracer != nullptr) {
    const edms::RuntimeSnapshot snap = runtime->Snapshot();
    std::vector<Span> spans = tracer->Take();
    // Straggler: per gate, how long the slowest shard's scheduler run ended
    // after the fastest one's, averaged over gates that ran several shards.
    std::map<int64_t, std::pair<int64_t, int64_t>> gate_ends;
    std::map<int64_t, int> gate_runs;
    for (const Span& s : spans) {
      if (std::strcmp(s.name, "scheduling.run") != 0) continue;
      auto [it, fresh] = gate_ends.try_emplace(s.parent, s.end_ns, s.end_ns);
      if (!fresh) {
        it->second.first = std::min(it->second.first, s.end_ns);
        it->second.second = std::max(it->second.second, s.end_ns);
      }
      ++gate_runs[s.parent];
    }
    double straggler_ms = 0.0;
    int gates = 0;
    for (const auto& [gate, ends] : gate_ends) {
      if (gate_runs[gate] < 2) continue;
      straggler_ms += static_cast<double>(ends.second - ends.first) * 1e-6;
      ++gates;
    }
    FillLayers(r, std::move(spans), seams);
    auto& m = r.layers;
    m["runtime.strand_tasks"] = static_cast<double>(snap.strand_tasks_run);
    m["runtime.strand_busy_s"] = snap.strand_task_s_total;
    m["runtime.queue_wait_max_ms"] =
        static_cast<double>(wait_max_ns.load()) * 1e-6;
    m["runtime.intake_depth_peak"] = static_cast<double>(depth_peak.load());
    m["runtime.straggler_ms"] = gates > 0 ? straggler_ms / gates : 0.0;
    m["runtime.steals"] = static_cast<double>(runtime->pool()->steals());
    m["runtime.lag_p99_ms"] = Percentile(r.lag_ms, 99.0);
  }
  return r;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;
    // Engine bookkeeping dominates: one huge intake batch, ~900-member P2
    // macros, so scheduling is a small share of the round.
    WorkloadSpec bulk;
    bulk.name = "bulk_dayahead";
    bulk.loop = Loop::kEngine;
    bulk.offers = 200000;
    bulk.days = 2;
    bulk.bulk = true;
    bulk.params = aggregation::AggregationParams::P2();
    bulk.scheduler_max_iterations = 4096;
    w.push_back(bulk);

    // The scheduling kernel dominates: small bin-packed macros and a large
    // iteration cap per gate.
    WorkloadSpec sched;
    sched.name = "sched_bound";
    sched.loop = Loop::kEngine;
    sched.offers = 20000;
    sched.days = 2;
    sched.params = aggregation::AggregationParams::P0();
    sched.bin_packer_max_offers = 8;
    sched.scheduler_max_iterations = 32768;
    w.push_back(sched);

    // The runtime layer: trickle intake beside running gates. The cadence is
    // one the parent commit keeps up with (gates take about 5 slices).
    WorkloadSpec sharded = sched;
    sharded.name = "sharded_intraday";
    sharded.loop = Loop::kShardedOpenLoop;
    sharded.scheduler_max_iterations = 8192;
    sharded.shards = 4;
    sharded.workers = 2;
    sharded.cadence_ms = 10.0;
    w.push_back(sharded);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  namespace datagen = mirabel::datagen;
  Inputs in;
  in.seed = seed;
  datagen::FlexOfferWorkloadConfig gen;
  gen.count = spec.offers;
  gen.seed = seed;
  gen.horizon_days = spec.days;
  in.offers = datagen::GenerateFlexOffers(gen);

  if (spec.bulk) {
    in.batches.push_back({0, 0, in.offers.size()});
  } else {
    std::stable_sort(in.offers.begin(), in.offers.end(),
                     [](const FlexOffer& a, const FlexOffer& b) {
                       return a.creation_time < b.creation_time;
                     });
    for (size_t i = 0; i < in.offers.size(); ++i) {
      const TimeSlice t = in.offers[i].creation_time;
      if (in.batches.empty() || in.batches.back().slice != t) {
        if (!in.batches.empty()) in.batches.back().end = i;
        in.batches.push_back({t, i, in.offers.size()});
      }
    }
  }

  // Past the latest schedule end and the latest deadline-expiry gate every
  // offer is terminal.
  TimeSlice last = 0;
  for (const FlexOffer& fo : in.offers) {
    last = std::max<TimeSlice>(
        last, fo.latest_start + static_cast<TimeSlice>(fo.profile.size()));
    last = std::max<TimeSlice>(last, fo.assignment_before + kGatePeriod);
  }
  in.end_slice = last + 1;

  // Demand minus wind, built the way node::EdmsSimulation builds a BRP's
  // curve, with one "prosumer" of amplitude per 1000 offers of each engine
  // (every shard schedules against the whole curve). At this size
  // the offers' own load dominates the net curve, so imbalance_reduction_pct
  // measures how well the gates flatten it; a larger curve lets the seeded
  // wind series swing that metric by 25% from seed to seed.
  in.scale = static_cast<double>(spec.offers) /
             (1000.0 * static_cast<double>(spec.shards));
  const int days = static_cast<int>(in.end_slice / kSlicesPerDay) + 4;
  datagen::DemandSeriesConfig demand_cfg;
  demand_cfg.periods_per_day = kSlicesPerDay;
  demand_cfg.days = days;
  demand_cfg.base_load_mw = 1.0 * in.scale;
  demand_cfg.daily_amplitude = 1.5 * in.scale;
  demand_cfg.weekly_amplitude = 0.4 * in.scale;
  demand_cfg.annual_amplitude = 0.0;
  demand_cfg.noise_stddev = 0.08 * in.scale;
  demand_cfg.seed = seed + 100;
  std::vector<double> demand = datagen::GenerateDemandSeries(demand_cfg);
  datagen::WindSeriesConfig wind_cfg;
  wind_cfg.periods_per_day = kSlicesPerDay;
  wind_cfg.days = days;
  wind_cfg.capacity_mw = 2.0 * in.scale;
  wind_cfg.seed = seed + 200;
  std::vector<double> wind = datagen::GenerateWindSeries(wind_cfg);
  in.baseline_kwh.resize(std::min(demand.size(), wind.size()));
  for (size_t t = 0; t < in.baseline_kwh.size(); ++t) {
    in.baseline_kwh[t] = demand[t] - wind[t];
  }
  return in;
}

double ConstructSystem(const WorkloadSpec& spec, const Inputs& inputs) {
  const int64_t start = NowNs();
  double seconds = 0.0;
  if (spec.loop == Loop::kEngine) {
    edms::EdmsEngine engine(EngineConfig(spec, inputs));
    seconds = static_cast<double>(NowNs() - start) * 1e-9;
  } else {
    auto runtime = MakeRuntime(spec, inputs, nullptr, nullptr);
    seconds = static_cast<double>(NowNs() - start) * 1e-9;
  }
  return seconds;
}

RoundResult RunRound(const WorkloadSpec& spec, const Inputs& inputs,
                     Tracer* tracer) {
  return spec.loop == Loop::kEngine
             ? RunEngineRound(spec, inputs, tracer)
             : RunShardedRound(spec, inputs, tracer);
}

std::string Fingerprint(const RoundResult& r) {
  const edms::EngineStats& s = r.stats;
  auto bits = [](double v) {
    uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
  };
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "acc=%" PRId64 " rej=%" PRId64 " asg=%" PRId64 " exe=%" PRId64
      " exp=%" PRId64 " runs=%" PRId64 " macros=%" PRId64
      " imb_before=%016" PRIx64 " imb_after=%016" PRIx64 " cost=%016" PRIx64,
      r.accepted, r.rejected, r.assigned, r.executed, r.expired,
      s.scheduling_runs, s.macros_scheduled, bits(s.imbalance_before_kwh),
      bits(s.imbalance_after_kwh), bits(s.schedule_cost_eur));
  return buf;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

}  // namespace perfbench
