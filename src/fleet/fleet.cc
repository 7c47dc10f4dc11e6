#include "src/fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <thread>

#include "src/base/check.h"
#include "src/trace/span.h"

namespace hyperalloc::fleet {
namespace {

// FNV-1a 64-bit, folded byte-wise over 64-bit words. Per-VM outcome
// streams digest into one of these; equality across worker-thread
// counts is the fleet determinism check.
struct Fnv1a {
  uint64_t h = 14695981039346656037ull;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void Mix(double v) { Mix(std::bit_cast<uint64_t>(v)); }
};

}  // namespace

// Nearest-rank percentile over an unsorted sample (copied in, sorted
// once). Deterministic; also used by the bench-side span cross-check.
double PercentileMs(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) -
          (q > 0.0 ? 1 : 0));
  return values[rank];
}

metrics::TimeSeries MergeSum(const std::vector<metrics::TimeSeries>& series,
                             sim::Time period) {
  return metrics::MergeSum(series, period);
}

bool SeriesEqual(const metrics::TimeSeries& a, const metrics::TimeSeries& b) {
  if (a.points().size() != b.points().size()) {
    return false;
  }
  for (size_t i = 0; i < a.points().size(); ++i) {
    if (a.points()[i].at != b.points()[i].at ||
        a.points()[i].value != b.points()[i].value) {
      return false;
    }
  }
  return true;
}

// One VM's world. Constructed on the engine thread in index order; the
// simulation is driven by exactly one worker thread at a time (epoch
// slices re-assign VMs to threads freely — the barrier hand-off is the
// synchronization). Everything here is per-VM; the only cross-VM state
// is the host pool.
struct FleetEngine::VmState {
  uint64_t index = 0;
  std::unique_ptr<sim::Simulation> own_sim;  // null in shared-clock mode
  sim::Simulation* sim = nullptr;
  FleetVmParts parts;
  std::unique_ptr<VmAgent> agent;
  VmContext context;

  // Self-referencing sampler chain (stored here so the std::function the
  // event queue copies never dangles).
  std::function<void()> sampler;
  bool record_series = false;
  sim::Time sample_period = 0;
  sim::Time sample_horizon = 0;  // 0 = unbounded (run-to-completion)
  metrics::TimeSeries rss_gib;

  // Control-loop state (engine thread at barriers + done callbacks on
  // this VM's own simulation — never concurrent).
  uint64_t wss_bytes = 0;
  bool wss_primed = false;
  uint64_t inflight_target = 0;
  std::vector<ResizeRecord> records;
  Fnv1a digest;

  // Telemetry accounting (engine thread at barriers only). Records
  // complete in issue order — one in-flight resize per VM, never
  // preempted — so a cursor scan finds this epoch's completions.
  size_t records_scanned = 0;
  uint64_t last_achieved = 0;
  uint64_t faults_total = 0;
  uint64_t retries_total = 0;
  uint64_t rollbacks_total = 0;

  uint64_t limit_bytes() const {
    return parts.deflator != nullptr ? parts.deflator->limit_bytes()
                                     : parts.vm->config().memory_bytes;
  }
};

FleetEngine::FleetEngine(const FleetConfig& config, VmFactory vm_factory,
                         AgentFactory agent_factory,
                         std::unique_ptr<ResizePolicy> policy)
    : config_(config),
      vm_factory_(std::move(vm_factory)),
      agent_factory_(std::move(agent_factory)),
      policy_(std::move(policy)) {
  HA_CHECK(config_.vms > 0);
  HA_CHECK(vm_factory_ != nullptr && agent_factory_ != nullptr);
  if (config_.shared_clock) {
    // Shared-clock scenarios are causally coupled: one event queue, one
    // driving thread, agents finish on their own.
    HA_CHECK(config_.run_to_completion);
    HA_CHECK(config_.threads == 1);
  }
  if (!config_.run_to_completion) {
    HA_CHECK(config_.epoch > 0 && config_.horizon >= config_.epoch);
  }
}

FleetEngine::~FleetEngine() = default;

void FleetEngine::SetOnVmCreated(
    std::function<void(uint64_t, sim::Simulation*, guest::GuestVm*,
                       hv::Deflator*)>
        hook) {
  HA_CHECK(states_.empty());  // must be set before Run()
  on_vm_created_ = std::move(hook);
}

guest::GuestVm* FleetEngine::vm(uint64_t index) {
  HA_CHECK(index < states_.size());
  return states_[index]->parts.vm.get();
}

hv::Deflator* FleetEngine::deflator(uint64_t index) {
  HA_CHECK(index < states_.size());
  return states_[index]->parts.deflator.get();
}

fault::Injector* FleetEngine::injector(uint64_t index) {
  HA_CHECK(index < states_.size());
  return states_[index]->parts.fault.get();
}

void FleetEngine::StartSampling(VmState* state) {
  state->record_series = config_.record_series;
  state->sample_period = config_.sample_period;
  state->sample_horizon = config_.run_to_completion ? 0 : config_.horizon;
  state->sampler = [this, state] {
    if (state->agent->finished()) {
      return;
    }
    const double gib = static_cast<double>(state->parts.vm->rss_bytes()) /
                       static_cast<double>(kGiB);
    state->digest.Mix(state->sim->now());
    state->digest.Mix(gib);
    if (state->record_series) {
      state->rss_gib.Sample(state->sim->now(), gib);
    }
    const sim::Time next = state->sim->now() + state->sample_period;
    if (state->sample_horizon == 0 || next <= state->sample_horizon) {
      state->sim->After(state->sample_period, state->sampler);
    }
  };
  state->sampler();  // synchronous first sample, like the old harness
}

void FleetEngine::BuildVms() {
  const uint64_t capacity_bytes =
      config_.host_bytes != 0
          ? config_.host_bytes
          : config_.vms * config_.vm_bytes + config_.host_slack_bytes;
  host_ = std::make_unique<hv::HostMemory>(FramesForBytes(capacity_bytes));
  if (config_.shared_clock) {
    shared_sim_ = std::make_unique<sim::Simulation>();
  }

  states_.reserve(config_.vms);
  for (uint64_t i = 0; i < config_.vms; ++i) {
    auto state = std::make_unique<VmState>();
    state->index = i;
    if (config_.shared_clock) {
      state->sim = shared_sim_.get();
    } else {
      state->own_sim = std::make_unique<sim::Simulation>();
      state->sim = state->own_sim.get();
    }
    state->parts = vm_factory_(state->sim, host_.get(), i,
                               "vm" + std::to_string(i));
    HA_CHECK(state->parts.vm != nullptr);
    if (config_.arm_host_faults && i == 0 &&
        state->parts.fault != nullptr) {
      host_->SetFaultInjector(state->parts.fault.get());
    }
    if (on_vm_created_) {
      on_vm_created_(i, state->sim, state->parts.vm.get(),
                     state->parts.deflator.get());
    }
    if (!config_.run_to_completion && config_.initial_limit_bytes > 0 &&
        state->parts.deflator != nullptr) {
      // Synchronous shrink to the starting limit so the committed
      // ledger begins feasible (nothing is populated yet — this only
      // pays the protocol cost, identically on every VM).
      bool settled = false;
      state->parts.deflator->Request(
          {.target_bytes = config_.initial_limit_bytes,
           .done = [&settled] { settled = true; }});
      while (!settled) {
        HA_CHECK(state->sim->Step());
      }
    }
    state->context = {state->sim, state->parts.vm.get(),
                      state->parts.deflator.get(), i,
                      config_.run_to_completion ? 0 : config_.horizon};
    state->agent = agent_factory_(i);
    HA_CHECK(state->agent != nullptr);
    state->agent->Start(&state->context);
    StartSampling(state.get());
    states_.push_back(std::move(state));
  }
}

void FleetEngine::ParallelPass(const std::function<void(uint64_t)>& task) {
  const uint64_t n = states_.size();
  unsigned threads =
      config_.threads == 0 ? static_cast<unsigned>(n) : config_.threads;
  threads = std::max(1u, std::min(threads, static_cast<unsigned>(n)));
  std::atomic<uint64_t> next{0};
  auto worker = [&task, &next, n] {
    for (uint64_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      task(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (std::thread& t : pool) {
    t.join();
  }
}

void FleetEngine::ControlStep(sim::Time barrier, FleetResult* result) {
  (void)result;
  const uint64_t n = states_.size();

  // Pressure-spike injection: bump the first spike.vms agents' demand at
  // the first barrier past `at`; the policy sees it immediately below.
  if (!spike_applied_ && config_.spike.vms > 0 &&
      barrier >= config_.spike.at) {
    for (uint64_t i = 0; i < std::min<uint64_t>(config_.spike.vms, n); ++i) {
      states_[i]->agent->OnPressureSpike(config_.spike.bytes);
    }
    spike_applied_ = true;
    spike_applied_at_ = barrier;
    slo_.spike_applied = true;
  }

  // One consistent signal sweep, VM-index order. All simulations are
  // quiesced at `barrier`, so every reading is deterministic.
  std::vector<VmSignal> signals(n);
  uint64_t committed = 0;
  for (uint64_t i = 0; i < n; ++i) {
    VmState& s = *states_[i];
    VmSignal& sig = signals[i];
    sig.memory_bytes = s.parts.vm->config().memory_bytes;
    sig.limit_bytes = s.limit_bytes();
    sig.demand_bytes = s.agent->demand_bytes();
    sig.busy = s.parts.deflator != nullptr && s.parts.deflator->busy();
    const uint64_t rss = s.parts.vm->rss_bytes();
    s.wss_bytes = s.wss_primed ? (3 * s.wss_bytes + rss) / 4 : rss;
    s.wss_primed = true;
    sig.wss_bytes = s.wss_bytes;
    committed += std::max(sig.limit_bytes, sig.busy ? s.inflight_target : 0);
  }
  const uint64_t capacity = host_->total_frames() * kFrameSize;
  const uint64_t usable = static_cast<uint64_t>(
      static_cast<double>(capacity) *
      (1.0 - std::clamp(config_.admission_reserve, 0.0, 0.5)));
  PoolSignal pool;
  pool.capacity_bytes = capacity;
  pool.used_bytes = host_->used_bytes();
  pool.committed_bytes = committed;
  pool.pressure = std::clamp(static_cast<double>(committed) /
                                 static_cast<double>(capacity),
                             0.0, 1.0);

  // Time-to-reclaim: first barrier at which every spiked VM's limit
  // covers its (clamped) demand.
  if (spike_applied_ && !slo_.spike_satisfied) {
    bool satisfied = true;
    for (uint64_t i = 0; i < std::min<uint64_t>(config_.spike.vms, n); ++i) {
      const uint64_t need =
          std::min(signals[i].demand_bytes, signals[i].memory_bytes);
      satisfied = satisfied && signals[i].limit_bytes >= need;
    }
    if (satisfied) {
      slo_.spike_satisfied = true;
      slo_.time_to_reclaim_ms =
          static_cast<double>(barrier - spike_applied_at_) /
          static_cast<double>(sim::kMs);
    }
  }

  if (policy_ == nullptr) {
    SampleTelemetry(barrier, committed, pool.pressure);
    return;
  }
  std::vector<ResizeAction> actions(n);
  for (uint64_t i = 0; i < n; ++i) {
    actions[i] = {signals[i].limit_bytes, 0};  // default: keep
  }
  policy_->Decide(pool, signals, &actions);

  // The ledger arms once the commitment is feasible (with
  // initial_limit_bytes that is the first barrier); from then on grants
  // preserve  sum_i max(limit_i, inflight_i) <= usable  inductively,
  // which is what keeps TryReserve from ever failing mid-epoch.
  if (!ledger_active_ && committed <= usable) {
    ledger_active_ = true;
  }

  uint64_t ledger = committed;
  for (uint64_t i = 0; i < n; ++i) {
    VmState& s = *states_[i];
    const VmSignal& sig = signals[i];
    if (sig.busy) {
      continue;  // never preempt an in-flight resize
    }
    uint64_t target =
        std::min(actions[i].target_bytes, sig.memory_bytes);
    if (target > sig.limit_bytes) {
      // Backends move limits in whole huge frames and round the achieved
      // limit UP; align grow targets down to the limit's lattice so a
      // grant can never achieve more than the ledger accounted for.
      target -= (target - sig.limit_bytes) % kHugeSize;
    }
    if (target == sig.limit_bytes) {
      continue;
    }
    if (target > sig.limit_bytes && ledger_active_) {
      const uint64_t delta = target - sig.limit_bytes;
      const uint64_t headroom =
          usable > ledger ? (usable - ledger) / kHugeSize * kHugeSize : 0;
      if (delta > headroom) {
        if (headroom < kHugeSize) {  // not worth a huge frame: refuse
          ++admission_.rejected;
          continue;
        }
        target = sig.limit_bytes + headroom;
        ++admission_.clipped;
      } else {
        ++admission_.granted;
      }
      ledger += target - sig.limit_bytes;
    }

    s.inflight_target = target;
    const size_t slot = s.records.size();
    ResizeRecord record;
    record.vm = i;
    record.issued = s.sim->now();
    record.target_bytes = target;
    s.records.push_back(record);

    hv::ResizeRequest request;
    request.target_bytes = target;
    request.deadline_ns = actions[i].deadline;
    request.done = [state = &s, slot] {
      ResizeRecord& r = state->records[slot];
      const hv::ResizeOutcome& o = state->parts.deflator->last_outcome();
      r.completed = state->sim->now();
      // Every backend reports the outcome of the request it just finished.
      HA_CHECK(o.target_bytes == r.target_bytes);
      r.achieved_bytes = o.achieved_bytes;
      r.complete = o.complete;
      r.timed_out = o.timed_out;
      r.faults = o.faults;
      r.retries = o.retries;
      r.rollbacks = o.rollbacks;
      state->inflight_target = 0;
      state->digest.Mix(r.issued);
      state->digest.Mix(r.completed);
      state->digest.Mix(r.target_bytes);
      state->digest.Mix(r.achieved_bytes);
      state->digest.Mix(static_cast<uint64_t>(r.complete) |
                        (static_cast<uint64_t>(r.timed_out) << 1));
      state->digest.Mix(r.faults);
      state->digest.Mix(r.retries);
      state->digest.Mix(r.rollbacks);
    };
    {
#if HYPERALLOC_TRACE
      // The root request span must carry this VM's id and clock even
      // though it is issued from the control thread.
      trace::SpanContext span_context;
      span_context.vm = static_cast<uint32_t>(i);
      span_context.clock = s.sim;
      trace::ScopedContext scoped(span_context);
#endif
      s.parts.deflator->Request(request);
    }
  }

  // Sampled after issue so the gauges see this barrier's in-flight
  // targets and busy bits (the state the next epoch runs under).
  SampleTelemetry(barrier, committed, pool.pressure);
}

void FleetEngine::SampleTelemetry(sim::Time barrier, uint64_t committed_bytes,
                                  double pressure) {
  if (telemetry_ == nullptr || !telemetry_->enabled()) {
    return;
  }
  const uint64_t n = states_.size();
  std::vector<telemetry::VmGauges> gauges(n);
  std::vector<double> completed_ms;
  for (uint64_t i = 0; i < n; ++i) {
    VmState& s = *states_[i];
    if (i + 1 < n) {
      // The fill below chases cold per-VM objects; overlapping the next
      // VM's cache misses with this one's reads keeps the barrier sample
      // inside the telemetry wall budget at fleet scale. Two-deep: the
      // i+1 header was prefetched last iteration, so its guest/fault
      // objects can be requested now.
      VmState& next = *states_[i + 1];
      __builtin_prefetch(next.parts.vm.get());
      if (next.parts.fault != nullptr) {
        __builtin_prefetch(next.parts.fault.get());
      }
      if (i + 2 < n) {
        __builtin_prefetch(states_[i + 2].get());
      }
    }
    while (s.records_scanned < s.records.size() &&
           s.records[s.records_scanned].completed != 0) {
      const ResizeRecord& r = s.records[s.records_scanned++];
      completed_ms.push_back(static_cast<double>(r.completed - r.issued) /
                             static_cast<double>(sim::kMs));
      s.last_achieved = r.achieved_bytes;
      s.faults_total += r.faults;
      s.retries_total += r.retries;
      s.rollbacks_total += r.rollbacks;
    }
    telemetry::VmGauges& g = gauges[i];
    g.vm = i;
    g.limit_bytes = s.limit_bytes();
    g.target_bytes = s.inflight_target;
    g.achieved_bytes = s.last_achieved;
    g.wss_bytes = s.wss_bytes;
    g.rss_bytes = s.parts.vm->rss_bytes();
    g.demand_bytes = s.agent->demand_bytes();
    g.busy = s.parts.deflator != nullptr && s.parts.deflator->busy();
    g.resizes = s.records_scanned;
    g.faults = s.faults_total;
    g.retries = s.retries_total;
    g.rollbacks = s.rollbacks_total;
    if (s.parts.fault != nullptr) {
      g.quarantined = s.parts.fault->quarantined_vm();
      g.quarantined_frames = s.parts.fault->quarantined_frames();
    }
  }
  telemetry_->OnEpoch(barrier, std::move(gauges), committed_bytes, pressure,
                      admission_.granted, admission_.clipped,
                      admission_.rejected, completed_ms);
}

void FleetEngine::RunEpochs(FleetResult* result) {
  for (sim::Time barrier = config_.epoch; barrier <= config_.horizon;
       barrier += config_.epoch) {
    ParallelPass([this, barrier](uint64_t i) {
      VmState& s = *states_[i];
#if HYPERALLOC_TRACE
      trace::SpanContext span_context;
      span_context.vm = static_cast<uint32_t>(i);
      span_context.clock = s.sim;
      trace::ScopedContext scoped(span_context);
#endif
      s.sim->RunUntil(barrier);
    });
    ControlStep(barrier, result);
  }
  // Run-out: drive in-flight resizes (including ones issued at the last
  // barrier) to completion. The sampler and agent chains all end at the
  // horizon, so only resize machinery remains — bounded by design.
  ParallelPass([this](uint64_t i) {
    VmState& s = *states_[i];
#if HYPERALLOC_TRACE
    trace::SpanContext span_context;
    span_context.vm = static_cast<uint32_t>(i);
    span_context.clock = s.sim;
    trace::ScopedContext scoped(span_context);
#endif
    while (s.parts.deflator != nullptr && s.parts.deflator->busy()) {
      HA_CHECK(s.sim->Step());
    }
  });
}

void FleetEngine::RunToCompletion() {
  if (config_.shared_clock) {
    // One queue, one thread: step until every agent is done.
    auto all_finished = [this] {
      for (const auto& s : states_) {
        if (!s->agent->finished()) {
          return false;
        }
      }
      return true;
    };
    while (!all_finished()) {
      HA_CHECK(shared_sim_->Step());
    }
    return;
  }
  // The old harness semantics: workers pull whole VMs and run each
  // simulation dry. Not RunUntilIdle — auto-reclaim schedules periodic
  // events forever; the agent's finished() is the termination signal.
  ParallelPass([this](uint64_t i) {
    VmState& s = *states_[i];
#if HYPERALLOC_TRACE
    trace::SpanContext span_context;
    span_context.vm = static_cast<uint32_t>(i);
    span_context.clock = s.sim;
    trace::ScopedContext scoped(span_context);
#endif
    while (!s.agent->finished()) {
      HA_CHECK(s.sim->Step());
    }
  });
}

FleetResult FleetEngine::Run() {
  HA_CHECK(states_.empty());  // Run() is one-shot
  const auto wall_start = std::chrono::steady_clock::now();
  BuildVms();
  FleetResult result;
  if (config_.run_to_completion) {
    RunToCompletion();
  } else {
    telemetry_ = std::make_unique<telemetry::Pipeline>(
        config_.telemetry, config_.vms, host_->shards(), config_.epoch);
    RunEpochs(&result);
    result.telemetry = telemetry_->Finish();
  }
  const auto wall_end = std::chrono::steady_clock::now();

  std::vector<double> latencies_ms;
  Fnv1a fleet_digest;
  for (auto& state : states_) {
    const uint64_t final_limit = state->limit_bytes();
    state->digest.Mix(final_limit);
    result.final_limit_bytes.push_back(final_limit);
    result.vm_digests.push_back(state->digest.h);
    fleet_digest.Mix(state->digest.h);
    if (config_.record_series) {
      result.per_vm_rss.push_back(std::move(state->rss_gib));
    }
    for (const ResizeRecord& r : state->records) {
      latencies_ms.push_back(static_cast<double>(r.completed - r.issued) /
                             static_cast<double>(sim::kMs));
      result.resizes.push_back(r);
    }
    if (state->parts.deflator != nullptr) {
      const hv::HugeReclaimStats h = state->parts.deflator->huge_reclaim();
      result.huge_reclaim.untouched += h.untouched;
      result.huge_reclaim.via_2m += h.via_2m;
      result.huge_reclaim.via_4k += h.via_4k;
    }
  }
  result.fleet_digest = fleet_digest.h;
  if (!result.per_vm_rss.empty()) {
    result.merged =
        metrics::MergeSum(result.per_vm_rss, config_.sample_period);
    result.footprint_gib_min = result.merged.IntegralPerMinute();
    result.peak_gib = result.merged.Max();
  }
  result.pool_peak_frames = host_->peak_frames();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count();
  slo_.resizes = latencies_ms.size();
  slo_.p50_resize_ms = PercentileMs(latencies_ms, 0.50);
  slo_.p99_resize_ms = PercentileMs(latencies_ms, 0.99);
  result.slo = slo_;
  result.admission = admission_;
  return result;
}

}  // namespace hyperalloc::fleet
