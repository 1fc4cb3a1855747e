#include "dse/explorer.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "dse/freq_replay.hpp"
#include "dse/pareto.hpp"
#include "dse/profile_cache.hpp"
#include "kernels/depthwise.hpp"
#include "kernels/pointwise.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/arena.hpp"
#include "util/thread_pool.hpp"

namespace daedvfs::dse {
namespace {

/// Gather-buffer bytes a candidate needs — delegates to the kernels' own
/// scratch formulas so the bound can never diverge from what the kernels
/// actually allocate.
std::size_t scratch_bytes(const graph::Model& model,
                          const graph::LayerSpec& layer, int granularity) {
  const tensor::Shape4& in = model.tensor_shape(layer.inputs.at(0));
  switch (layer.kind) {
    case graph::LayerKind::kDepthwise:
      return kernels::depthwise_scratch_bytes(in, granularity);
    case graph::LayerKind::kPointwise:
      return kernels::pointwise_scratch_bytes(in, granularity);
    default:
      return 0;
  }
}

uint64_t align_up(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }

/// Binds a tensor id at the running SRAM cursor (canonical placement).
kernels::TensorRef bind_canonical(const graph::Model& model, int tensor_id,
                                  uint64_t& cursor) {
  kernels::TensorRef ref;
  ref.view.shape = model.tensor_shape(tensor_id);
  ref.view.quant = model.tensor_quant(tensor_id);
  ref.view.data = nullptr;  // Timing mode never dereferences operand data
  ref.mem = {cursor, sim::MemRegion::kSram};
  cursor = align_up(
      cursor + static_cast<uint64_t>(ref.view.shape.elems()),
      tensor::Arena::kAlignment);
  return ref;
}

}  // namespace

LayerSolution profile_candidate_isolated(const graph::Model& model,
                                         int layer_idx,
                                         const LayerSolution& candidate,
                                         const clock::ClockConfig& lfo,
                                         const ExploreOptions& opts,
                                         sim::WorkLedger* ledger) {
  const graph::LayerSpec& layer =
      model.layers().at(static_cast<std::size_t>(layer_idx));
  sim::SimParams params = opts.sim;
  params.boot = candidate.hfo;
  sim::Mcu mcu(params);
  mcu.set_ledger(ledger);

  // Canonical placement: activations from the SRAM base, scratch just past
  // them, weights from the flash base. Every address is a function of the
  // layer's shapes only, so two structurally identical layers see the same
  // cache-set mapping and produce bitwise identical profiles.
  runtime::LayerIo io;
  uint64_t cursor = sim::kSramBase;
  io.input = bind_canonical(model, layer.inputs.at(0), cursor);
  if (layer.inputs.size() > 1) {
    io.input_b = bind_canonical(model, layer.inputs.at(1), cursor);
  }
  io.output = bind_canonical(model, layer.id, cursor);
  io.weights_mem = sim::MemRef{sim::kFlashBase, sim::MemRegion::kFlash};
  io.bias_mem = sim::MemRef{
      align_up(sim::kFlashBase +
                   static_cast<uint64_t>(layer.weights.shape().elems()),
               16),
      sim::MemRegion::kFlash};

  kernels::ExecContext ctx;
  ctx.mcu = &mcu;
  ctx.mode = kernels::ExecMode::kTiming;
  ctx.scratch_mem = {align_up(cursor, kernels::kScratchAlignBytes),
                     sim::MemRegion::kSram};

  const int g = layer.is_dae_eligible() ? candidate.granularity : 0;
  kernels::LfoHfoPolicy policy(lfo, candidate.hfo);
  if (candidate.dvfs_enabled && g > 0) ctx.dvfs = &policy;

  mcu.switch_clock(candidate.hfo);  // layer entry (no-op: booted at the HFO)
  runtime::dispatch_layer(layer, io, g, ctx);

  LayerSolution out = candidate;
  out.t_us = mcu.time_us();
  out.energy_uj = mcu.energy_uj();
  return out;
}

std::vector<LayerSolutionSet> explore_model(const graph::Model& model,
                                            const DesignSpace& space,
                                            const ExploreOptions& opts,
                                            ExploreStats* stats) {
  ExploreStats st;
  const double wall_start_us =
      opts.sink != nullptr && opts.sink->trace != nullptr ? obs::host_now_us()
                                                          : 0.0;
  const bool replay = opts.freq_replay && opts.memoize;
  // Replayed entries are accurate to FP-reassociation error, not bitwise —
  // key them apart so a shared cache never serves them to an exact-mode
  // explore (and vice versa).
  const uint64_t sim_fp =
      sim_fingerprint(opts.sim) ^ (replay ? 0x9e3779b97f4a7c15ull : 0);
  ProfileCache local_cache;
  ProfileCache* cache = opts.cache != nullptr ? opts.cache : &local_cache;
  const ProfileCache::Stats cache_before = cache->stats();

  // A slot is one entry of one layer's `all` vector; a job is one simulation
  // to run plus the candidates it covers. With memoization several slots
  // share a job; with frequency replay one job covers a whole (signature,
  // granularity) group — members[0] is simulated (recording a WorkLedger),
  // the rest are evaluated in closed form. Slots resolved from a persistent
  // cache need no job at all.
  struct Slot {
    int layer_idx;
    std::size_t pos;         ///< Index into sets[layer].all.
    std::size_t job;         ///< Index into jobs, or npos when cached.
    std::size_t member = 0;  ///< Index into the job's members.
    ProfileEntry cached{};   ///< Valid when job == npos.
    std::uint64_t sig = 0;
    std::uint64_t cand = 0;
  };
  struct Job {
    int layer_idx;
    std::vector<LayerSolution> members;
    std::unordered_map<std::uint64_t, std::size_t> member_of_cand;
  };
  constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);

  std::vector<LayerSolutionSet> sets;
  sets.reserve(static_cast<std::size_t>(model.num_layers()));
  std::vector<Slot> slots;
  std::vector<Job> jobs;
  std::unordered_map<std::uint64_t, std::size_t> job_of_key;

  for (int i = 0; i < model.num_layers(); ++i) {
    const graph::LayerSpec& layer =
        model.layers()[static_cast<std::size_t>(i)];
    LayerSolutionSet set;
    set.layer_idx = i;
    set.kind = layer.kind;
    const std::uint64_t sig =
        opts.memoize ? layer_signature(model, layer) : 0;

    std::vector<int> gs;
    if (layer.is_dae_eligible()) {
      gs = space.granularities;
    } else {
      gs = {0};  // "rest" layers: frequency-only exploration (Fig. 6).
    }

    for (int g : gs) {
      if (opts.max_scratch_bytes != 0 &&
          scratch_bytes(model, layer, g) > opts.max_scratch_bytes) {
        continue;
      }
      for (const clock::ClockConfig& hfo : space.hfo_configs) {
        LayerSolution cand;
        cand.granularity = g;
        cand.hfo = hfo;
        cand.dvfs_enabled = g > 0;
        set.all.push_back(cand);
      }
    }
    st.total_candidates += static_cast<std::int64_t>(set.all.size());

    for (std::size_t pos = 0; pos < set.all.size(); ++pos) {
      const LayerSolution& cand = set.all[pos];
      Slot slot;
      slot.layer_idx = i;
      slot.pos = pos;
      slot.sig = sig;
      slot.cand = candidate_hash(cand.granularity, cand.dvfs_enabled,
                                 cand.hfo, space.lfo);

      if (!opts.memoize) {
        slot.job = jobs.size();
        jobs.push_back({i, {cand}, {}});
      } else if (auto hit = cache->lookup(slot.sig, slot.cand, sim_fp)) {
        slot.job = kNoJob;
        slot.cached = *hit;
        ++st.cache_hits;
      } else {
        // Job key: the whole (signature, granularity) group under replay,
        // one candidate otherwise.
        StructHash key;
        key.add(slot.sig);
        if (replay) {
          key.add(cand.granularity);
          key.add(cand.dvfs_enabled);
        } else {
          key.add(slot.cand);
        }
        const auto [it, inserted] =
            job_of_key.try_emplace(key.value(), jobs.size());
        if (inserted) jobs.push_back({i, {}, {}});
        slot.job = it->second;
        Job& job = jobs[it->second];
        const auto [mit, member_added] =
            job.member_of_cand.try_emplace(slot.cand, job.members.size());
        if (member_added) {
          job.members.push_back(cand);
        } else {
          ++st.cache_hits;
        }
        slot.member = mit->second;
      }
      slots.push_back(slot);
    }
    sets.push_back(std::move(set));
  }

  // Fan the profiling jobs out over the pool. Each job builds its own
  // isolated Mcu/ExecContext; results land in preassigned indices, so the
  // outcome is independent of scheduling. Under replay, members[0] is
  // simulated with a work ledger attached and the remaining members are
  // evaluated from it in closed form.
  std::vector<std::vector<ProfileEntry>> results(jobs.size());
  util::ThreadPool::Stats pool_stats;
  {
    const int threads = util::ThreadPool::resolve(opts.num_threads);
    util::ThreadPool pool(std::max(threads - 1, 0));
    pool.parallel_for(
        static_cast<std::int64_t>(jobs.size()), [&](std::int64_t j) {
          const Job& job = jobs[static_cast<std::size_t>(j)];
          std::vector<ProfileEntry>& out =
              results[static_cast<std::size_t>(j)];
          out.resize(job.members.size());
          sim::WorkLedger ledger;
          const LayerSolution ref = profile_candidate_isolated(
              model, job.layer_idx, job.members[0], space.lfo, opts,
              job.members.size() > 1 ? &ledger : nullptr);
          out[0] = {ref.t_us, ref.energy_uj};
          for (std::size_t k = 1; k < job.members.size(); ++k) {
            out[k] = replay_profile(ledger, job.members[0].hfo,
                                    job.members[k].hfo, opts.sim);
          }
        });
    pool_stats = pool.stats();
  }
  st.profiled = static_cast<std::int64_t>(jobs.size());
  for (const Job& job : jobs) {
    st.replayed += static_cast<std::int64_t>(job.members.size()) - 1;
  }
  if (opts.memoize) {
    for (const Slot& slot : slots) {
      if (slot.job != kNoJob) {
        cache->store(slot.sig, slot.cand, sim_fp,
                     results[slot.job][slot.member]);
      }
    }
  }

  for (const Slot& slot : slots) {
    const ProfileEntry& e = slot.job == kNoJob
                                ? slot.cached
                                : results[slot.job][slot.member];
    LayerSolution& sol =
        sets[static_cast<std::size_t>(slot.layer_idx)].all[slot.pos];
    sol.t_us = e.t_us;
    sol.energy_uj = e.energy_uj;
  }

  for (LayerSolutionSet& set : sets) {
    set.pareto = pareto_front(
        set.all, [](const LayerSolution& s) { return s.t_us; },
        [](const LayerSolution& s) { return s.energy_uj; });
  }
  if (stats != nullptr) *stats = st;

  // Observability (docs/observability.md): counters for this call's work
  // mix, the profile cache's delta over the call, and the pool's execution
  // stats — plus a wall-clock span on the host track. Purely observational.
  if (opts.sink != nullptr) {
    if (obs::MetricsRegistry* mx = opts.sink->metrics) {
      mx->counter("explore.total_candidates")
          .add(static_cast<std::uint64_t>(st.total_candidates));
      mx->counter("explore.profiled")
          .add(static_cast<std::uint64_t>(st.profiled));
      mx->counter("explore.cache_hits")
          .add(static_cast<std::uint64_t>(st.cache_hits));
      mx->counter("explore.replayed")
          .add(static_cast<std::uint64_t>(st.replayed));
      const ProfileCache::Stats& cs = cache->stats();
      mx->counter("profile_cache.hits").add(cs.hits - cache_before.hits);
      mx->counter("profile_cache.misses").add(cs.misses - cache_before.misses);
      mx->gauge("profile_cache.entries")
          .set(static_cast<double>(cache->size()));
      mx->counter("thread_pool.tasks").add(pool_stats.tasks);
      mx->counter("thread_pool.busy_us").add(pool_stats.busy_us);
      const double depth = static_cast<double>(pool_stats.max_queue_depth);
      obs::Gauge& qd = mx->gauge("thread_pool.max_queue_depth");
      if (depth > qd.value()) qd.set(depth);
    }
    if (obs::TraceRecorder* tr = opts.sink->trace) {
      tr->complete(obs::Track::kHost, "explore_model", wall_start_us,
                   obs::host_now_us() - wall_start_us, "profiled",
                   static_cast<double>(st.profiled), "candidates",
                   static_cast<double>(st.total_candidates));
    }
  }
  return sets;
}

}  // namespace daedvfs::dse
