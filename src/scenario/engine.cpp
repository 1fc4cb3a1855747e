#include "scenario/engine.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/faults.hpp"

namespace daedvfs::scenario {
namespace {

/// Safety cap on simulated frames — bounds runaway specs (e.g. a microsecond
/// period over a year-long horizon), reported via MissionReport::truncated.
/// Counted against offered slots, which equal captures on fault-free specs
/// and additionally cover reboot-downtime slots on faulted ones.
constexpr std::uint64_t kMaxFrames = 200'000'000ULL;

/// Seed perturbation of the fault stream: the fault xorshift64 is seeded
/// with `spec.seed ^ kFaultStreamSalt`, so fault draws (loss, backoff
/// jitter) never consume — or depend on — the period-jitter stream.
constexpr std::uint64_t kFaultStreamSalt = 0xfa017c0de5eedULL;

/// Connectivity windows as an IntervalSet (scenario/faults.hpp), preserving
/// the documented edge case: no *effective* (positive-duration) windows =
/// always connected — a list of degenerate zero-length entries behaves like
/// the empty list, not like a permanent blackout.
class Connectivity {
 public:
  explicit Connectivity(const std::vector<ConnectivityWindow>& windows) {
    std::vector<std::pair<double, double>> spans;
    spans.reserve(windows.size());
    for (const ConnectivityWindow& w : windows) {
      spans.emplace_back(w.start_s, w.duration_s);
    }
    set_ = IntervalSet::from_spans(spans);
  }

  [[nodiscard]] bool gated() const { return !set_.empty(); }

  /// Is `t` inside a window? Queries must be non-decreasing in time.
  [[nodiscard]] bool connected(double t) {
    return set_.empty() || set_.contains(t);
  }

  /// End of the window containing `t` (call connected(t) first).
  [[nodiscard]] double window_end() const { return set_.active_end(); }

 private:
  IntervalSet set_;
};

/// Deque-shaped view of one node's backlog ring inside the batch's shared
/// slab. Capacity is the uplink queue bound + 1 (a capture is pushed before
/// the overflow check evicts the oldest), so the ring never wraps onto live
/// entries; values and service order are exactly the old std::deque's.
class BacklogRing {
 public:
  BacklogRing(double* buf, std::uint32_t cap, std::uint32_t& head,
              std::uint32_t& len)
      : buf_(buf), cap_(cap), head_(head), len_(len) {}

  [[nodiscard]] bool empty() const { return len_ == 0; }
  [[nodiscard]] std::uint32_t size() const { return len_; }
  [[nodiscard]] double front() const { return buf_[head_]; }
  [[nodiscard]] double back() const {
    return buf_[(head_ + len_ - 1) % cap_];
  }
  void push_back(double v) {
    buf_[(head_ + len_) % cap_] = v;
    ++len_;
  }
  void pop_front() {
    head_ = (head_ + 1) % cap_;
    --len_;
  }
  void pop_back() { --len_; }
  void clear() { len_ = 0; }

 private:
  double* buf_;
  std::uint32_t cap_;
  std::uint32_t& head_;
  std::uint32_t& len_;
};

/// Harvest intake effective at `ambient_c`: the active step scaled by the
/// panel thermal-derating coefficient, clamped at zero.
double effective_intake_mw(const MissionSpec& spec, double harvest_mw,
                           double ambient_c) {
  if (spec.harvest_temp_coeff <= 0.0) return harvest_mw;
  return harvest_mw *
         std::max(0.0, 1.0 - spec.harvest_temp_coeff * (ambient_c - 25.0));
}

/// Events sorted by their mission time, ties kept in spec order.
template <class Event>
std::vector<Event> sorted_by_time(const std::vector<Event>& events) {
  std::vector<Event> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event& a, const Event& b) {
                     return a.at_s < b.at_s;
                   });
  return sorted;
}

/// One node's mission state: its borrowed spec, ranges into the batch's
/// shared event and backlog arenas, and everything the slot loop reads and
/// writes. Distinct nodes touch distinct NodeStates, which is what makes
/// concurrent run() calls on different nodes safe.
struct NodeState {
  const MissionSpec* spec = nullptr;
  // Sorted mission-event timelines: [begin, begin + count) of each arena.
  std::uint32_t qos_begin = 0, qos_count = 0;
  std::uint32_t temp_begin = 0, temp_count = 0;
  std::uint32_t harvest_begin = 0, harvest_count = 0;
  std::uint32_t reset_begin = 0, reset_count = 0;
  // Backlog ring: [queue_off, queue_off + queue_cap) of the queue slab.
  std::size_t queue_off = 0;
  std::uint32_t queue_cap = 0, queue_head = 0, queue_len = 0;

  Connectivity link;
  IntervalSet outages;
  // Radio burst price, plus the duty-cycling split: payload-only cost of a
  // follow frame riding an already-ramped PA, and the batch bound (1 =
  // per-frame).
  double radio_us = 0.0, radio_uj = 0.0;
  double radio_follow_us = 0.0, radio_follow_uj = 0.0;
  std::uint32_t radio_batch = 1;
  bool radio_enabled = false;

  power::Battery battery;
  Xorshift64 rng, fault_rng;  ///< Jitter + fault streams.

  double now_s = 0.0, slack = 0.0, ambient_c = 25.0, harvest_mw = 0.0;
  double down_until_s = 0.0, next_ckpt_s = 0.0, miss_ewma = 0.0;
  int cur = -1;        ///< Rung of the last served frame.
  int predicted = -1;  ///< Pre-locked rung awaiting its wake.
  int wake = -1;       ///< Clock-tree state (WakeTable id); -1 = cold start.
  bool prelock_pending = false, ran = false;
  std::uint32_t next_event = 0, next_temp = 0, next_harvest = 0;
  std::uint32_t next_reset = 0, shed_countdown = 0;
  GovernorCheckpoint ckpt;

  NodeState(const MissionSpec& s, const power::RadioModel& radio)
      : spec(&s),
        link(s.connectivity),
        radio_us(radio.tx_us()),
        radio_uj(radio.tx_uj()),
        radio_follow_us(radio.payload_us()),
        radio_follow_uj(radio.payload_uj()),
        radio_batch(std::max<std::uint32_t>(s.radio_batch_frames, 1)),
        radio_enabled(radio.enabled()),
        battery(s.battery),
        rng(s.seed),
        fault_rng(s.seed ^ kFaultStreamSalt),
        slack(s.base_qos_slack),
        ambient_c(s.base_ambient_c),
        harvest_mw(std::max(s.base_harvest_mw, 0.0)),
        next_ckpt_s(s.faults.reboot.checkpoint_interval_s) {
    if (s.base_ambient_c != 25.0) battery.set_ambient_c(s.base_ambient_c);
  }
};

}  // namespace

/// The batch: one NodeState per node plus the shared arenas for event
/// timelines and backlog rings, and the wake-transition table every node's
/// frames are priced from. add() fills a node's state; run() executes the
/// slot loop on it.
struct MissionBatch::Block {
  const SchedulePolicy& policy;
  const double t_base_us;
  /// policy.rungs() priced with the batch's SimParams (switch costs, power
  /// model, boot clock): the engine's wake transitions and pre-locks,
  /// handed to the policy through FrameContext.
  const WakeTable wakes;
  double max_peak_mhz = 0.0;

  std::vector<NodeState> nodes;
  std::vector<QosEvent> qos_arena;
  std::vector<TempEvent> temp_arena;
  std::vector<HarvestEvent> harvest_arena;
  std::vector<ResetEvent> reset_arena;
  std::vector<double> queue_slab;

  Block(const SchedulePolicy& p, double tb, const sim::SimParams& s)
      : policy(p),
        t_base_us(tb),
        wakes(p.rungs(), s.switching, power::PowerModel(s.power), s.boot) {
    for (const RungInfo& rung : p.rungs()) {
      max_peak_mhz = std::max(max_peak_mhz, rung.peak_mhz());
    }
  }
};

MissionBatch::MissionBatch(const SchedulePolicy& policy, double t_base_us,
                           const sim::SimParams& sim)
    : b_(std::make_unique<Block>(policy, t_base_us, sim)) {}

MissionBatch::~MissionBatch() = default;

std::size_t MissionBatch::size() const { return b_->nodes.size(); }

std::size_t MissionBatch::add(const MissionSpec& s) {
  Block& b = *b_;
  NodeState& n = b.nodes.emplace_back(s, power::RadioModel(s.radio));

  const auto append = [](auto& arena, std::uint32_t& begin,
                         std::uint32_t& count, const auto& sorted) {
    begin = static_cast<std::uint32_t>(arena.size());
    count = static_cast<std::uint32_t>(sorted.size());
    arena.insert(arena.end(), sorted.begin(), sorted.end());
  };
  append(b.qos_arena, n.qos_begin, n.qos_count, sorted_by_time(s.qos_events));
  append(b.temp_arena, n.temp_begin, n.temp_count,
         sorted_by_time(s.temp_events));
  append(b.harvest_arena, n.harvest_begin, n.harvest_count,
         sorted_by_time(s.harvest_events));
  append(b.reset_arena, n.reset_begin, n.reset_count,
         sorted_by_time(s.faults.resets));

  std::vector<std::pair<double, double>> outage_spans;
  outage_spans.reserve(s.faults.radio.outages.size());
  for (const Outage& o : s.faults.radio.outages) {
    outage_spans.emplace_back(o.start_s, o.duration_s);
  }
  n.outages = IntervalSet::from_spans(outage_spans);

  // Ring region: queue bound + 1 (push-then-evict never wraps onto live
  // entries).
  const std::uint32_t cap = std::max<std::uint32_t>(s.uplink_queue_frames, 1);
  n.queue_off = b.queue_slab.size();
  n.queue_cap = cap + 1;
  b.queue_slab.resize(b.queue_slab.size() + cap + 1);
  return b.nodes.size() - 1;
}

MissionReport MissionBatch::run(std::size_t node, obs::Sink* sink) {
  Block& b = *b_;
  NodeState& n = b.nodes.at(node);
  const MissionSpec& spec = *n.spec;
  const SchedulePolicy& policy = b.policy;

  MissionReport r;
  r.mission = spec.name;
  r.policy = policy.name();
  const std::vector<RungInfo>& rungs = policy.rungs();
  r.frames_per_rung.assign(rungs.size(), 0);
  if (rungs.empty() || b.t_base_us <= 0.0 || spec.duty.period_s <= 0.0) {
    return r;
  }
  assert(!n.ran && "MissionBatch::run consumes a node's state");
  n.ran = true;

  // ---- Observability (obs/). Emission only: every site below is gated on
  // the recorder pointer and reads engine state without feeding back — the
  // report is bit-identical whether or not a sink is attached. Mission
  // events are stamped in sim time (microseconds of mission time), so an
  // enabled trace is byte-reproducible across runs and kernel modes.
  obs::TraceRecorder* const tr = sink != nullptr ? sink->trace : nullptr;
  std::vector<const char*> rung_names;
  if (tr != nullptr) {
    rung_names.reserve(rungs.size());
    for (const RungInfo& rung : rungs) {
      rung_names.push_back(tr->intern(rung.name));
    }
  }
  int link_traced = -1;  ///< Connectivity span state: -1 unknown, 0/1 down/up.

  // ---- Bind node `node`'s state. A standalone mission runs this same
  // loop on a batch of one, which is what keeps batched reports
  // bit-identical to standalone ones.
  const WakeTable& wakes = b.wakes;
  power::Battery& battery = n.battery;
  const QosEvent* const qos_events = b.qos_arena.data() + n.qos_begin;
  const TempEvent* const temp_events = b.temp_arena.data() + n.temp_begin;
  const HarvestEvent* const harvest_events =
      b.harvest_arena.data() + n.harvest_begin;
  Connectivity& link = n.link;
  const double max_peak_mhz = b.max_peak_mhz;

  // ---- Fault machinery (scenario/faults.hpp). Every fault path below is
  // gated on its spec being declared, and fault decisions draw from a
  // dedicated stream — a fault-free MissionSpec takes none of these
  // branches, consumes no fault draws, and reproduces the fault-free engine
  // bit for bit (pinned by the golden report).
  const FaultSpec& faults = spec.faults;
  const bool lossy = n.radio_enabled && faults.radio.enabled();
  // An attempt fails inside a hard outage unconditionally (no draw), else
  // by the per-attempt loss probability. Attempt times are non-decreasing
  // across the mission, matching the IntervalSet query contract.
  auto tx_attempt_fails = [&](double t) {
    if (!n.outages.empty() && n.outages.contains(t)) return true;
    return faults.radio.loss_prob > 0.0 &&
           n.fault_rng.next_unit() < faults.radio.loss_prob;
  };
  const ResetEvent* const resets = b.reset_arena.data() + n.reset_begin;
  const RebootSpec& reboot = faults.reboot;
  const bool ckpt_on = reboot.checkpointed();
  const DegradedModeSpec& degraded = faults.degraded;
  const bool degraded_on = degraded.enabled();

  double& now_s = n.now_s;
  double& slack = n.slack;
  double& ambient_c = n.ambient_c;
  double& harvest_mw = n.harvest_mw;
  const bool has_harvest = harvest_mw > 0.0 || n.harvest_count > 0;
  int& cur = n.cur;
  int& wake = n.wake;
  BacklogRing queue(b.queue_slab.data() + n.queue_off, n.queue_cap,
                    n.queue_head, n.queue_len);  ///< Captures awaiting service.
  const std::size_t queue_cap =
      std::max<std::uint32_t>(spec.uplink_queue_frames, 1);

  if (tr != nullptr) {
    tr->counter(obs::Track::kEnv, "qos_slack", 0.0, slack);
    tr->counter(obs::Track::kEnv, "ambient_c", 0.0, ambient_c);
    if (has_harvest) tr->counter(obs::Track::kEnv, "harvest_mw", 0.0, harvest_mw);
  }
  /// Closes a slot of `step_s`: the active harvest intake charges the
  /// battery over the whole span (the sun does not care what the MCU or
  /// the uplink is doing), scaled by panel thermal derating, rate-capped
  /// and clamped at capacity inside Battery::charge — skipped once
  /// depleted: a browned-out node is dead, charge never revives it, so
  /// depletion semantics match the discharge-only engine exactly. Then the
  /// battery SoC + backlog depth counters are sampled and time advances.
  const auto end_slot = [&](double step_s) {
    if (has_harvest && !battery.depleted()) {
      r.harvested_mwh += battery.charge(
          step_s, effective_intake_mw(spec, harvest_mw, ambient_c));
    }
    if (tr != nullptr) {
      const double end_us = (now_s + step_s) * 1e6;
      tr->counter(obs::Track::kBattery, "soc_mwh", end_us,
                  battery.remaining_mwh());
      if (link.gated()) {
        tr->counter(obs::Track::kBacklog, "queue_depth", end_us,
                    static_cast<double>(queue.size()));
      }
    }
    now_s += step_s;
  };
  /// A slot that runs nothing: it sleeps whole at `draw_mw` (0 while the
  /// node is down rebooting — only self-discharge), then closes.
  const auto sleep_slot = [&](double period_s, double draw_mw) {
    r.sleep_uj += std::max(draw_mw, 0.0) * period_s * 1e3;
    battery.elapse(period_s, draw_mw);
    end_slot(period_s);
  };

  // One frame is *captured* per duty-cycle slot. While the uplink is gated
  // and down, captures queue as latency debt; while it is up, the engine
  // serves the queue front (the live capture, when the queue was empty)
  // and then drains further backlog back-to-back inside the slot.
  while (now_s < spec.horizon_s && !battery.depleted()) {
    if (r.frames >= kMaxFrames || r.frames_offered >= kMaxFrames) {
      r.truncated = true;
      break;
    }
    bool slack_changed = false;
    while (n.next_event < n.qos_count &&
           qos_events[n.next_event].at_s <= now_s) {
      slack = qos_events[n.next_event++].qos_slack;
      slack_changed = true;
    }
    bool ambient_changed = false;
    while (n.next_temp < n.temp_count &&
           temp_events[n.next_temp].at_s <= now_s) {
      ambient_c = temp_events[n.next_temp++].ambient_c;
      ambient_changed = true;
    }
    if (ambient_changed) battery.set_ambient_c(ambient_c);
    bool harvest_changed = false;
    while (n.next_harvest < n.harvest_count &&
           harvest_events[n.next_harvest].at_s <= now_s) {
      harvest_mw = std::max(harvest_events[n.next_harvest++].intake_mw, 0.0);
      harvest_changed = true;
    }
    if (tr != nullptr) {
      if (slack_changed) {
        tr->counter(obs::Track::kEnv, "qos_slack", now_s * 1e6, slack);
      }
      if (ambient_changed) {
        tr->counter(obs::Track::kEnv, "ambient_c", now_s * 1e6, ambient_c);
      }
      if (harvest_changed) {
        tr->counter(obs::Track::kEnv, "harvest_mw", now_s * 1e6, harvest_mw);
      }
    }
    const double cap_mhz = spec.derate.max_sysclk_mhz(ambient_c);

    // ---- Faults: brownout/watchdog resets, resolved at slot granularity.
    // A reset pays the boot energy, takes the node down for the boot time,
    // and erases the volatile state: the clock tree falls back to the boot
    // configuration (any pre-lock is gone — a pending one is a miss), and
    // the governor either restores the last checkpoint (rung preference,
    // miss EWMA, queued frames captured at or before it) or cold-boots
    // (everything queued is dropped).
    while (n.next_reset < n.reset_count &&
           resets[n.next_reset].at_s <= now_s) {
      ++n.next_reset;
      ++r.resets;
      if (tr != nullptr) {
        tr->complete(obs::Track::kFaults, "reboot", now_s * 1e6,
                     std::max(reboot.boot_s, 0.0) * 1e6);
      }
      const double boot_uj = std::max(reboot.boot_uj, 0.0);
      battery.drain_uj(boot_uj);
      r.boot_uj += boot_uj;
      n.down_until_s = std::max(n.down_until_s,
                              now_s + std::max(reboot.boot_s, 0.0));
      if (n.prelock_pending) {
        ++r.prelock_misses;
        n.prelock_pending = false;
        if (tr != nullptr) {
          tr->instant(obs::Track::kGovernor, "prelock_miss", now_s * 1e6);
        }
      }
      n.predicted = -1;
      wake = wakes.boot_id();
      if (n.ckpt.valid()) {
        while (!queue.empty() && queue.back() > n.ckpt.at_s) {
          queue.pop_back();
          ++r.frames_dropped;
        }
        cur = n.ckpt.rung;
        n.miss_ewma = n.ckpt.miss_ewma;
      } else {
        r.frames_dropped += queue.size();
        queue.clear();
        cur = -1;
        n.miss_ewma = 0.0;
      }
    }
    const bool down = now_s < n.down_until_s;

    // ---- Faults: periodic governor checkpoint — one flash write per due
    // interval boundary (collapsed to one per slot when a slot spans
    // several), skipped while the node is down rebooting (the cursor still
    // advances: a dead node writes nothing).
    if (ckpt_on) {
      bool due = false;
      while (n.next_ckpt_s <= now_s) {
        due = true;
        n.next_ckpt_s += reboot.checkpoint_interval_s;
      }
      if (due && !down) {
        n.ckpt = GovernorCheckpoint{now_s, cur, n.miss_ewma};
        const double ckpt_uj = std::max(reboot.checkpoint_uj, 0.0);
        battery.drain_uj(ckpt_uj);
        r.checkpoint_uj += ckpt_uj;
        ++r.checkpoints;
        if (tr != nullptr) {
          tr->instant(obs::Track::kFaults, "checkpoint", now_s * 1e6);
        }
      }
    }

    double period_s = spec.duty.period_s;
    for (const Burst& b2 : spec.bursts) {
      if (b2.period_s > 0.0 && now_s >= b2.start_s &&
          now_s < b2.start_s + b2.duration_s) {
        period_s = std::min(period_s, b2.period_s);
      }
    }
    if (spec.period_jitter > 0.0) {
      period_s *= 1.0 + spec.period_jitter * (2.0 * n.rng.next_unit() - 1.0);
      period_s = std::max(period_s, 1e-6);
    }
    double active_slack = slack;
    if (spec.low_battery_soc > 0.0 &&
        battery.soc() < spec.low_battery_soc) {
      active_slack = std::max(active_slack, spec.low_battery_qos_slack);
    }
    const double deadline_us = b.t_base_us * (1.0 + active_slack);

    // Every slot is a capture *opportunity* the duty cycle offers — the
    // availability denominator. Slots the node reboots through are offered
    // but never captured.
    ++r.frames_offered;

    // ---- Faults: reboot downtime. The node is off: nothing captures, no
    // sleep draw (only battery self-discharge), but the sun still charges.
    if (down) {
      r.downtime_s += std::min(period_s, n.down_until_s - now_s);
      sleep_slot(period_s, 0.0);
      continue;
    }

    // ---- Capture.
    ++r.frames_captured;
    if (tr != nullptr) {
      tr->instant(obs::Track::kFrames, "capture", now_s * 1e6);
    }

    // ---- Faults: graceful degradation sheds this capture (bounded by the
    // policy's skip factor): the frame is accounted, never enqueued, and
    // the whole slot sleeps — trading declared QoS for survival.
    if (n.shed_countdown > 0) {
      --n.shed_countdown;
      ++r.frames_shed;
      if (tr != nullptr) {
        tr->instant(obs::Track::kFaults, "shed", now_s * 1e6);
      }
      sleep_slot(period_s, spec.duty.sleep_mw);
      continue;
    }

    queue.push_back(now_s);
    if (queue.size() > queue_cap) {
      queue.pop_front();
      ++r.frames_dropped;
    }
    if (link.gated()) {
      r.max_backlog = std::max<std::uint64_t>(r.max_backlog, queue.size());
    }

    if (!link.connected(now_s)) {
      if (tr != nullptr && link_traced == 1) {
        tr->end(obs::Track::kLink, "window", now_s * 1e6);
      }
      link_traced = 0;
      // Down: the whole slot sleeps on the retained clock state.
      sleep_slot(period_s, spec.duty.sleep_mw);
      continue;
    }
    if (tr != nullptr && link.gated() && link_traced != 1) {
      tr->begin(obs::Track::kLink, "window", now_s * 1e6);
      link_traced = 1;
    }

    // ---- Serve: queue front first (== the live capture when no backlog),
    // then drain back-to-back while frames fit inside the slot and the
    // window stays up. The first serve may overrun the slot (the slot then
    // stretches, exactly like a v1 frame whose inference exceeds the
    // period).
    const double slot_end_s = now_s + period_s;
    double total_active_s = 0.0;
    bool first = true;
    std::uint32_t batch_pos = 0;
    FrameContext ctx;
    while (!queue.empty()) {
      const double serve_s = now_s + total_active_s;
      if (!first && !link.connected(serve_s)) break;
      const double capture_s = queue.front();

      // ---- Radio duty-cycling: frames drained back-to-back share one PA
      // ramp per batch of radio_batch frames. The batch leader pays the
      // full burst (ramp + payload); followers ride the already-ramped PA
      // and pay payload only. radio_batch == 1 is per-frame bursts,
      // bit-identical to the pre-batching engine.
      const bool follow = n.radio_batch > 1 && (batch_pos % n.radio_batch) != 0;
      const double frame_radio_us = follow ? n.radio_follow_us : n.radio_us;
      const double frame_radio_uj = follow ? n.radio_follow_uj : n.radio_uj;

      ctx = FrameContext{};
      ctx.time_s = serve_s;
      ctx.deadline_us = deadline_us;
      ctx.period_s = period_s;
      ctx.battery_soc = battery.soc();
      ctx.max_sysclk_mhz = cap_mhz;
      ctx.backlog = static_cast<std::uint32_t>(queue.size() - 1);
      ctx.window_remaining_s =
          link.gated() ? link.window_end() - serve_s : -1.0;
      ctx.radio_us = frame_radio_us;
      ctx.wake_table = &wakes;
      ctx.wake_id = wake;

      const int next = policy.choose(ctx, cur);
      const RungInfo& rung = rungs.at(static_cast<std::size_t>(next));
      const TransitionCost trans =
          wake >= 0 ? wakes.row(wake)[next] : TransitionCost{};
      // The QoS deadline bounds the compute path (transition + inference);
      // the uplink burst extends the frame's slot occupancy instead — its
      // delay surfaces as backlog latency debt, not as a deadline miss.
      const double compute_us = trans.us + rung.t_us;
      const double frame_us = compute_us + frame_radio_us;
      if (!first && serve_s + frame_us * 1e-6 > slot_end_s) break;
      queue.pop_front();

      const bool missed = compute_us > ctx.deadline_us + 1e-9;
      if (missed) {
        ++r.deadline_misses;
        r.deadline_overrun_s += (compute_us - ctx.deadline_us) * 1e-6;
      }
      if (cur >= 0 && next != cur) ++r.rung_switches;
      if (cap_mhz > 0.0) {
        if (max_peak_mhz > cap_mhz + 1e-9) ++r.derated_frames;
        if (rung.peak_mhz() > cap_mhz + 1e-9) ++r.thermal_violations;
      }
      if (n.prelock_pending) {
        next == n.predicted ? ++r.prelock_hits : ++r.prelock_misses;
        if (tr != nullptr) {
          tr->instant(obs::Track::kGovernor,
                      next == n.predicted ? "prelock_hit" : "prelock_miss",
                      serve_s * 1e6);
        }
        n.prelock_pending = false;
      }
      battery.drain_uj(rung.e_uj + trans.uj + frame_radio_uj);
      r.inference_uj += rung.e_uj;
      r.transition_uj += trans.uj;
      r.radio_uj += frame_radio_uj;
      ++r.frames_per_rung[static_cast<std::size_t>(next)];
      ++r.frames;
      const double debt_s = serve_s - capture_s;
      r.backlog_latency_s += debt_s;
      r.max_latency_debt_s = std::max(r.max_latency_debt_s, debt_s);
      if (tr != nullptr) {
        tr->complete(obs::Track::kFrames,
                     rung_names[static_cast<std::size_t>(next)],
                     serve_s * 1e6, compute_us, "e_uj", rung.e_uj + trans.uj,
                     "debt_s", debt_s);
        if (missed) {
          tr->instant(obs::Track::kFrames, "deadline_miss", serve_s * 1e6);
        }
        if (frame_radio_us > 0.0) {
          tr->complete(obs::Track::kRadio, "tx", serve_s * 1e6 + compute_us,
                       frame_radio_us);
        }
      }

      // ---- Faults: lossy uplink with seeded-deterministic retry. A failed
      // attempt (hard outage, or the per-attempt loss draw) is retried up
      // to max_retries times, each after an exponential backoff (optionally
      // jittered from the fault stream); every retry pays a full radio
      // burst — PA ramp included — through the same RadioModel pricing as
      // the first attempt, and the backoff + burst extend the frame's slot
      // occupancy (latency debt for whatever queues behind it). The frame
      // is abandoned as a tx failure when the budget is exhausted, when the
      // next burst cannot finish inside the connectivity window, or when
      // the battery dies mid-burst.
      double uplink_us = frame_radio_us;
      if (lossy) {
        double attempt_start_s = serve_s + compute_us * 1e-6;
        // Retries always pay the full burst — the PA ramped down during the
        // backoff — even when the first attempt rode a shared batch ramp.
        double attempt_us = frame_radio_us;
        bool fail = tx_attempt_fails(attempt_start_s);
        std::uint32_t attempt = 0;
        while (fail) {
          if (attempt >= faults.radio.max_retries) {
            ++r.tx_failures;
            break;
          }
          const double unit = faults.radio.backoff_jitter > 0.0
                                  ? n.fault_rng.next_unit()
                                  : 0.5;
          const double backoff_s = retry_backoff_s(faults.radio, attempt, unit);
          const double next_start_s =
              attempt_start_s + attempt_us * 1e-6 + backoff_s;
          if (link.gated() &&
              next_start_s + n.radio_us * 1e-6 > link.window_end()) {
            ++r.tx_failures;  // the backoff crossed the window boundary
            break;
          }
          ++attempt;
          ++r.retries;
          if (tr != nullptr) {
            tr->complete(obs::Track::kRadio, "retry", next_start_s * 1e6,
                         n.radio_us);
          }
          uplink_us += backoff_s * 1e6 + n.radio_us;
          battery.drain_uj(n.radio_uj);
          r.retry_uj += n.radio_uj;
          attempt_start_s = next_start_s;
          attempt_us = n.radio_us;
          if (battery.depleted()) {
            ++r.tx_failures;  // died mid-retry-burst: delivery unconfirmed
            break;
          }
          fail = tx_attempt_fails(attempt_start_s);
        }
      }

      cur = next;
      wake = wakes.exit_id(next);
      ++batch_pos;
      total_active_s += (compute_us + uplink_us) * 1e-6;

      // ---- Faults: degraded-mode pressure input — the deadline-miss EWMA
      // the policy's shedding ladder reads.
      if (degraded_on) {
        n.miss_ewma += degraded.miss_alpha * ((missed ? 1.0 : 0.0) - n.miss_ewma);
      }
      first = false;
      if (battery.depleted()) break;
    }

    // ---- Faults: after serving, ask the policy's DegradedMode ladder how
    // many upcoming captures to shed (0 from degradation-blind policies).
    if (degraded_on && !first) {
      const std::uint32_t skip =
          policy.degraded_skip(battery.soc(), n.miss_ewma, degraded);
      n.shed_countdown = skip < degraded.max_skip ? skip : degraded.max_skip;
    }

    // The slot occupies max(period, active time); the remainder sleeps.
    // Self-discharge applies over the whole wall-clock span. Depletion is
    // resolved at slot granularity (the battery pins at empty mid-slot).
    const double step_s = std::max(period_s, total_active_s);
    const double sleep_s = step_s - total_active_s;
    r.sleep_uj += std::max(spec.duty.sleep_mw, 0.0) * sleep_s * 1e3;
    battery.elapse(sleep_s, spec.duty.sleep_mw);
    battery.elapse(total_active_s, 0.0);

    // ---- Predictive pre-lock: reposition the PLL/regulator for the rung
    // the policy expects next, paid during the sleep just charged (off the
    // wake critical path). Only when the sleep actually fits the relock.
    if (wake >= 0 && !first) {
      const int pred = policy.predict_next(ctx, cur);
      if (pred >= 0 && sleep_s * 1e6 > 0.0) {
        // A pre-lock follows a served frame, so the tree sits at `cur`'s
        // exit state.
        assert(wake == wakes.exit_id(cur));
        const WakeTable::Reposition& prelock = wakes.reposition(cur, pred);
        if (prelock.us > 0.0 && prelock.us <= sleep_s * 1e6) {
          battery.drain_uj(prelock.uj);
          r.prelock_uj += prelock.uj;
          ++r.prelocks;
          if (tr != nullptr) {
            tr->complete(obs::Track::kGovernor, "prelock",
                         (now_s + total_active_s) * 1e6, prelock.us, "rung",
                         static_cast<double>(pred));
          }
          n.predicted = pred;
          n.prelock_pending = true;
          wake = prelock.to;
        }
      }
    }

    end_slot(step_s);
  }

  r.simulated_s = now_s;
  r.battery_depleted = battery.depleted();
  r.battery_remaining_mwh = battery.remaining_mwh();
  r.frames_pending = queue.size();

  if (tr != nullptr && link_traced == 1) {
    // Balance the open connectivity span at mission end.
    tr->end(obs::Track::kLink, "window", now_s * 1e6);
  }
  if (sink != nullptr && sink->metrics != nullptr) {
    obs::MetricsRegistry& mx = *sink->metrics;
    mx.counter("scenario.frames_offered").add(r.frames_offered);
    mx.counter("scenario.frames_captured").add(r.frames_captured);
    mx.counter("scenario.frames_served").add(r.frames);
    mx.counter("scenario.frames_dropped").add(r.frames_dropped);
    mx.counter("scenario.frames_shed").add(r.frames_shed);
    mx.counter("scenario.deadline_misses").add(r.deadline_misses);
    mx.counter("scenario.rung_switches").add(r.rung_switches);
    mx.counter("scenario.prelocks").add(r.prelocks);
    mx.counter("scenario.prelock_hits").add(r.prelock_hits);
    mx.counter("scenario.prelock_misses").add(r.prelock_misses);
    mx.counter("scenario.retries").add(r.retries);
    mx.counter("scenario.tx_failures").add(r.tx_failures);
    mx.counter("scenario.resets").add(r.resets);
    mx.counter("scenario.checkpoints").add(r.checkpoints);
    mx.gauge("scenario.battery_remaining_mwh").set(r.battery_remaining_mwh);
    mx.gauge("scenario.availability").set(r.availability());
    mx.histogram("scenario.slot_backlog").observe(
        static_cast<double>(r.max_backlog));
  }
  return r;
}

MissionReport simulate_mission(const MissionSpec& spec,
                               const SchedulePolicy& policy,
                               double t_base_us, const sim::SimParams& sim,
                               obs::Sink* sink) {
  MissionBatch batch(policy, t_base_us, sim);
  batch.add(spec);
  return batch.run(0, sink);
}

}  // namespace daedvfs::scenario
