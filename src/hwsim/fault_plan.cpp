#include "hwsim/fault_plan.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/assert.hpp"
#include "hwsim/event_queue.hpp"
#include "hwsim/snapshot.hpp"

namespace iw::hwsim {

namespace {

/// NaN-proof probability check: written as a positive range test so a
/// NaN (for which every comparison is false) is rejected, not accepted.
bool valid_prob(double p) { return p >= 0.0 && p <= 1.0; }

/// "key=value" item splitter; returns false if '=' is missing.
bool split_item(const std::string& item, std::string* key,
                std::string* value) {
  const auto eq = item.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  *key = item.substr(0, eq);
  *value = item.substr(eq + 1);
  return true;
}

bool parse_prob(const std::string& s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  // valid_prob, not `v < 0.0 || v > 1.0`: strtod happily parses "nan",
  // for which both comparisons are false.
  if (end == s.c_str() || *end != '\0' || !valid_prob(v)) return false;
  *out = v;
  return true;
}

/// An unsigned decimal cycle count, at most the 48-bit packed event
/// time every queue and the frontier enforce. strtoull alone would wrap
/// "-1" to 2^64 - 1, skip leading whitespace and saturate on overflow,
/// so the digits are checked first. On failure `*why` names the rule
/// the value broke.
bool parse_cycles(const std::string& s, Cycles* out, std::string* why) {
  constexpr Cycles kMax = TimedQueue<IrqEvent>::kMaxTime;
  const auto quoted = "cycle value '" + s + "'";
  if (s.empty()) {
    *why = "missing cycle value";
    return false;
  }
  if (s[0] == '-' || s[0] == '+') {
    *why = quoted + " must not carry a sign";
    return false;
  }
  if (std::isspace(static_cast<unsigned char>(s[0])) != 0) {
    *why = quoted + " has leading whitespace";
    return false;
  }
  if (!std::all_of(s.begin(), s.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    *why = quoted + " is not a decimal integer";
    return false;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE || v > kMax) {
    *why = quoted + " exceeds the 48-bit event-time limit " +
           std::to_string(kMax);
    return false;
  }
  *out = static_cast<Cycles>(v);
  return true;
}

/// "P:C" — probability with a cycle magnitude. `cycles_required` items
/// reject a bare probability (a rate without a magnitude does nothing).
bool parse_prob_cycles(const std::string& s, double* p, Cycles* c,
                       bool cycles_required, std::string* why) {
  const auto colon = s.find(':');
  if (colon == std::string::npos) {
    return !cycles_required && parse_prob(s, p);
  }
  return parse_prob(s.substr(0, colon), p) &&
         parse_cycles(s.substr(colon + 1), c, why);
}

}  // namespace

bool FaultPlan::parse(const std::string& spec, FaultPlan* out,
                      std::string* err) {
  FaultPlan plan;
  plan.enabled = true;
  unsigned items = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto comma = spec.find(',', pos);
    const std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (item.empty()) continue;
    std::string key;
    std::string value;
    std::string why;  // set by parse_cycles
    bool ok = split_item(item, &key, &value);
    if (ok) {
      if (key == "drop") {
        ok = parse_prob(value, &plan.ipi_drop_rate);
      } else if (key == "delay") {
        ok = parse_prob_cycles(value, &plan.ipi_delay_rate,
                               &plan.ipi_delay_max,
                               /*cycles_required=*/true, &why);
      } else if (key == "dup") {
        ok = parse_prob_cycles(value, &plan.ipi_dup_rate,
                               &plan.ipi_dup_lag_max,
                               /*cycles_required=*/false, &why);
      } else if (key == "jitter") {
        ok = parse_prob_cycles(value, &plan.timer_jitter_rate,
                               &plan.timer_jitter_max,
                               /*cycles_required=*/true, &why);
      } else if (key == "drift") {
        ok = parse_cycles(value, &plan.timer_drift, &why);
      } else if (key == "spurious") {
        ok = parse_prob_cycles(value, &plan.spurious_irq_rate,
                               &plan.spurious_lag_max,
                               /*cycles_required=*/false, &why);
      } else if (key == "stall") {
        ok = parse_prob_cycles(value, &plan.stall_rate, &plan.stall_max,
                               /*cycles_required=*/true, &why);
      } else if (key == "vector") {
        Cycles v = 0;
        ok = parse_cycles(value, &v, &why) && v < 256;
        if (ok) plan.vector_filter = static_cast<int>(v);
      } else if (key == "window") {
        const auto dash = value.find('-');
        FaultWindow w;
        ok = dash != std::string::npos &&
             parse_cycles(value.substr(0, dash), &w.begin, &why) &&
             parse_cycles(value.substr(dash + 1), &w.end, &why) &&
             w.begin < w.end;
        if (ok) plan.windows.push_back(w);
      } else {
        ok = false;
      }
    }
    if (!ok) {
      if (err != nullptr) {
        *err = "bad fault spec item: '" + item + "'";
        if (!why.empty()) *err += " (" + why + ")";
      }
      return false;
    }
    ++items;
  }
  if (items == 0) {
    if (err != nullptr) *err = "empty fault spec";
    return false;
  }
  *out = plan;
  return true;
}

void FaultPlan::validate() const {
  IW_ASSERT_MSG(valid_prob(ipi_drop_rate),
                "FaultPlan: ipi_drop_rate must be in [0,1] (not NaN)");
  IW_ASSERT_MSG(valid_prob(ipi_delay_rate),
                "FaultPlan: ipi_delay_rate must be in [0,1] (not NaN)");
  IW_ASSERT_MSG(valid_prob(ipi_dup_rate),
                "FaultPlan: ipi_dup_rate must be in [0,1] (not NaN)");
  IW_ASSERT_MSG(valid_prob(timer_jitter_rate),
                "FaultPlan: timer_jitter_rate must be in [0,1] (not NaN)");
  IW_ASSERT_MSG(valid_prob(spurious_irq_rate),
                "FaultPlan: spurious_irq_rate must be in [0,1] (not NaN)");
  IW_ASSERT_MSG(valid_prob(stall_rate),
                "FaultPlan: stall_rate must be in [0,1] (not NaN)");
  IW_ASSERT_MSG(vector_filter >= -1 && vector_filter < 256,
                "FaultPlan: vector_filter must be -1 or a vector in [0,256)");
  for (const FaultWindow& w : windows) {
    IW_ASSERT_MSG(w.begin < w.end,
                  "FaultPlan: window must satisfy begin < end (non-empty, "
                  "not inverted)");
  }
}

Cycles FaultPlan::next_armed_stall_after(Cycles t) const {
  // Mirrors the guards in FaultInjector::stall_cycles exactly: a draw
  // happens only when the plan is enabled, the rate and magnitude are
  // nonzero, and the step's start time is inside an active window.
  if (!enabled || stall_rate <= 0.0 || stall_max == 0) return kNever;
  if (windows.empty()) return t;  // always armed while enabled
  Cycles earliest = kNever;
  for (const auto& w : windows) {
    if (w.end <= t) continue;  // window already over at t
    earliest = std::min(earliest, std::max(t, w.begin));
  }
  return earliest;
}

void FaultInjector::configure(const FaultPlan& plan,
                              std::uint64_t machine_seed,
                              std::uint64_t fault_seed, unsigned num_streams) {
  plan.validate();
  plan_ = plan;
  recording_ = false;
  scripted_ = false;
  if (num_streams == 0) num_streams = 1;
  streams_ = std::vector<Stream>(num_streams);
  // Dedicated streams: the machine's own Rng is never touched, so an
  // enabled plan perturbs only what it injects (downstream Rng::split
  // consumers see the exact same draws as a fault-free run). Each
  // stream is seeded from one splitmix64 chain off the base seed, so
  // stream i's draw sequence depends only on (base seed, i).
  std::uint64_t s =
      fault_seed != 0 ? fault_seed : (machine_seed ^ 0xFA017'1A9E5ULL);
  for (auto& st : streams_) st.rng = Rng(splitmix64(s));
}

FaultInjector::IpiFate FaultInjector::ipi_fate(unsigned stream_idx,
                                               int vector, Cycles sent) {
  // The opportunity is counted before every early-out (window, filter,
  // rates): the numbering must be a pure function of the event stream,
  // not of the plan parameters, so that a recording run and a scripted
  // replay with zeroed rates count identically.
  Stream& st = stream(stream_idx);
  const std::uint64_t op = st.ops[static_cast<unsigned>(FaultSite::kIpi)]++;
  IpiFate f;
  if (scripted_) {
    const FaultEvent* ev = next_scripted(st, FaultSite::kIpi, op);
    if (ev == nullptr) return f;
    if ((ev->effects & kFaultDrop) != 0) {
      f.drop = true;
      ++st.n.ipis_dropped;
      return f;
    }
    if ((ev->effects & kFaultDelay) != 0) {
      f.extra_delay = ev->magnitude;
      ++st.n.ipis_delayed;
    }
    if ((ev->effects & kFaultDup) != 0) {
      f.duplicate = true;
      f.dup_lag = ev->dup_lag;
      ++st.n.ipis_duplicated;
    }
    return f;
  }
  if (!active_at(sent)) return f;
  if (plan_.vector_filter >= 0 && vector != plan_.vector_filter) return f;
  if (plan_.ipi_drop_rate > 0.0 && st.rng.chance(plan_.ipi_drop_rate)) {
    f.drop = true;
    ++st.n.ipis_dropped;
  } else {
    if (plan_.ipi_delay_rate > 0.0 && plan_.ipi_delay_max > 0 &&
        st.rng.chance(plan_.ipi_delay_rate)) {
      f.extra_delay = st.rng.uniform(1, plan_.ipi_delay_max);
      ++st.n.ipis_delayed;
    }
    if (plan_.ipi_dup_rate > 0.0 && plan_.ipi_dup_lag_max > 0 &&
        st.rng.chance(plan_.ipi_dup_rate)) {
      f.duplicate = true;
      f.dup_lag = st.rng.uniform(1, plan_.ipi_dup_lag_max);
      ++st.n.ipis_duplicated;
    }
  }
  if (recording_ && (f.drop || f.extra_delay != 0 || f.duplicate)) {
    std::uint8_t effects = 0;
    if (f.drop) effects |= kFaultDrop;
    if (f.extra_delay != 0) effects |= kFaultDelay;
    if (f.duplicate) effects |= kFaultDup;
    st.rec.push_back(FaultEvent{static_cast<std::uint16_t>(stream_idx),
                                FaultSite::kIpi, op, effects, f.extra_delay,
                                f.dup_lag, sent, vector});
  }
  return f;
}

FaultInjector::TimerFate FaultInjector::timer_fate(unsigned stream_idx,
                                                   Cycles ideal) {
  Stream& st = stream(stream_idx);
  const std::uint64_t op = st.ops[static_cast<unsigned>(FaultSite::kTimer)]++;
  TimerFate f;
  if (scripted_) {
    // Drift is deterministic plan state (no draw), so it keeps acting
    // in scripted mode — only the probabilistic jitter comes from the
    // script.
    if (active_at(ideal)) f.drift = plan_.timer_drift;
    const FaultEvent* ev = next_scripted(st, FaultSite::kTimer, op);
    if (ev != nullptr) f.jitter = ev->magnitude;
    if (f.drift != 0 || f.jitter != 0) ++st.n.timer_perturbed;
    return f;
  }
  if (!active_at(ideal)) return f;
  f.drift = plan_.timer_drift;
  if (plan_.timer_jitter_rate > 0.0 && plan_.timer_jitter_max > 0 &&
      st.rng.chance(plan_.timer_jitter_rate)) {
    f.jitter = st.rng.uniform(1, plan_.timer_jitter_max);
    if (recording_) {
      st.rec.push_back(FaultEvent{static_cast<std::uint16_t>(stream_idx),
                                  FaultSite::kTimer, op, kFaultFire, f.jitter,
                                  0, ideal, -1});
    }
  }
  if (f.drift != 0 || f.jitter != 0) ++st.n.timer_perturbed;
  return f;
}

Cycles FaultInjector::spurious_irq_lag(unsigned stream_idx, Cycles t) {
  Stream& st = stream(stream_idx);
  const std::uint64_t op =
      st.ops[static_cast<unsigned>(FaultSite::kSpurious)]++;
  if (scripted_) {
    const FaultEvent* ev = next_scripted(st, FaultSite::kSpurious, op);
    if (ev == nullptr) return 0;
    ++st.n.spurious_irqs;
    return ev->magnitude;
  }
  if (!active_at(t)) return 0;
  if (plan_.spurious_irq_rate <= 0.0 || plan_.spurious_lag_max == 0) {
    return 0;
  }
  if (!st.rng.chance(plan_.spurious_irq_rate)) return 0;
  ++st.n.spurious_irqs;
  const Cycles lag = st.rng.uniform(1, plan_.spurious_lag_max);
  if (recording_) {
    st.rec.push_back(FaultEvent{static_cast<std::uint16_t>(stream_idx),
                                FaultSite::kSpurious, op, kFaultFire, lag, 0,
                                t, -1});
  }
  return lag;
}

Cycles FaultInjector::draw_stall(unsigned stream_idx, Cycles now) {
  Stream& st = stream(stream_idx);
  const std::uint64_t op = st.ops[static_cast<unsigned>(FaultSite::kStall)]++;
  if (scripted_) {
    const FaultEvent* ev = next_scripted(st, FaultSite::kStall, op);
    if (ev == nullptr) return 0;
    ++st.n.stalls;
    st.n.stall_cycles_total += ev->magnitude;
    return ev->magnitude;
  }
  // Not scripted: stall_cycles only gets here with a nonzero rate and
  // magnitude.
  if (!active_at(now)) return 0;
  if (!st.rng.chance(plan_.stall_rate)) return 0;
  const Cycles stolen = st.rng.uniform(1, plan_.stall_max);
  ++st.n.stalls;
  st.n.stall_cycles_total += stolen;
  if (recording_) {
    st.rec.push_back(FaultEvent{static_cast<std::uint16_t>(stream_idx),
                                FaultSite::kStall, op, kFaultFire, stolen, 0,
                                now, -1});
  }
  return stolen;
}

void FaultInjector::set_recording(bool on) {
  IW_ASSERT_MSG(!scripted_ || !on,
                "FaultInjector: cannot record while scripted");
  recording_ = on;
  if (on) {
    for (auto& st : streams_) st.rec.clear();
  }
}

std::vector<FaultEvent> FaultInjector::recorded_events() const {
  std::vector<FaultEvent> all;
  for (const auto& st : streams_) {
    all.insert(all.end(), st.rec.begin(), st.rec.end());
  }
  std::sort(all.begin(), all.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.stream != b.stream) return a.stream < b.stream;
              if (a.site != b.site) return a.site < b.site;
              return a.index < b.index;
            });
  return all;
}

void FaultInjector::set_script(const FaultPlan& base,
                               std::vector<FaultEvent> events) {
  FaultPlan p = base;
  p.enabled = true;
  // Zero every probabilistic rate: a scripted injector must never draw
  // from an RNG. Deterministic parts (windows, vector filter, drift,
  // magnitude caps) stay, so opportunity counting and drift behave
  // exactly as in the run the script was recorded from.
  p.ipi_drop_rate = 0.0;
  p.ipi_delay_rate = 0.0;
  p.ipi_dup_rate = 0.0;
  p.timer_jitter_rate = 0.0;
  p.spurious_irq_rate = 0.0;
  p.stall_rate = 0.0;
  p.validate();
  plan_ = p;
  recording_ = false;
  scripted_ = true;
  for (auto& st : streams_) {
    st.rec.clear();
    for (unsigned s = 0; s < kNumFaultSites; ++s) {
      st.script[s].clear();
      st.cursor[s] = 0;
    }
  }
  for (FaultEvent& ev : events) {
    IW_ASSERT_MSG(ev.stream < streams_.size(),
                  "fault script: stream index out of range");
    streams_[ev.stream].script[static_cast<unsigned>(ev.site)].push_back(ev);
  }
  for (auto& st : streams_) {
    for (auto& v : st.script) {
      std::sort(v.begin(), v.end(),
                [](const FaultEvent& a, const FaultEvent& b) {
                  return a.index < b.index;
                });
      for (std::size_t i = 1; i < v.size(); ++i) {
        IW_ASSERT_MSG(v[i - 1].index != v[i].index,
                      "fault script: duplicate (stream, site, index)");
      }
    }
  }
}

const FaultEvent* FaultInjector::next_scripted(Stream& st, FaultSite site,
                                               std::uint64_t op) {
  const auto s = static_cast<unsigned>(site);
  auto& cur = st.cursor[s];
  const auto& evs = st.script[s];
  // Events whose opportunity already passed can never fire: under a
  // delta-debugging subset the schedule legitimately shifts, and a
  // leftover index below the current count is simply skipped.
  while (cur < evs.size() && evs[cur].index < op) ++cur;
  if (cur < evs.size() && evs[cur].index == op) return &evs[cur++];
  return nullptr;
}

std::vector<std::uint64_t> FaultInjector::opportunity_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(streams_.size() * kNumFaultSites);
  for (const auto& st : streams_) {
    for (unsigned s = 0; s < kNumFaultSites; ++s) out.push_back(st.ops[s]);
  }
  return out;
}

Cycles FaultInjector::next_armed_stall_after(Cycles t) const {
  if (scripted_) {
    const auto s = static_cast<unsigned>(FaultSite::kStall);
    for (const auto& st : streams_) {
      if (st.cursor[s] < st.script[s].size()) return t;
    }
    return kNever;
  }
  return plan_.next_armed_stall_after(t);
}

void FaultInjector::save_state(SnapshotWriter& digested,
                               SnapshotWriter& ephemeral) const {
  IW_ASSERT_MSG(!recording_,
                "FaultInjector: snapshot mid-recording is not supported "
                "(the record buffers are not machine state)");
  digested.u64(streams_.size());
  for (const auto& st : streams_) {
    const Rng::State rs = st.rng.state();
    for (std::uint64_t w : rs.s) digested.u64(w);
    digested.f64(rs.cached_normal);
    digested.b(rs.has_cached_normal);
    digested.u64(st.n.ipis_dropped);
    digested.u64(st.n.ipis_delayed);
    digested.u64(st.n.ipis_duplicated);
    digested.u64(st.n.timer_perturbed);
    digested.u64(st.n.spurious_irqs);
    digested.u64(st.n.stalls);
    digested.u64(st.n.stall_cycles_total);
    for (unsigned s = 0; s < kNumFaultSites; ++s) {
      ephemeral.u64(st.ops[s]);
      ephemeral.u64(st.cursor[s]);
    }
  }
}

void FaultInjector::restore_state(SnapshotReader& digested,
                                  SnapshotReader& ephemeral) {
  IW_ASSERT_MSG(digested.u64() == streams_.size(),
                "FaultInjector: snapshot stream count mismatch");
  for (auto& st : streams_) {
    Rng::State rs;
    for (std::uint64_t& w : rs.s) w = digested.u64();
    rs.cached_normal = digested.f64();
    rs.has_cached_normal = digested.b();
    st.rng.set_state(rs);
    st.n.ipis_dropped = digested.u64();
    st.n.ipis_delayed = digested.u64();
    st.n.ipis_duplicated = digested.u64();
    st.n.timer_perturbed = digested.u64();
    st.n.spurious_irqs = digested.u64();
    st.n.stalls = digested.u64();
    st.n.stall_cycles_total = digested.u64();
    for (unsigned s = 0; s < kNumFaultSites; ++s) {
      st.ops[s] = ephemeral.u64();
      // The saved cursor indexed the script installed at capture time;
      // fault_bisect restores a checkpoint *after* swapping in a subset
      // script, so recompute it from the restored opportunity count
      // against whatever script is installed now.
      (void)ephemeral.u64();
      std::size_t cur = 0;
      const auto& evs = st.script[s];
      while (cur < evs.size() && evs[cur].index < st.ops[s]) ++cur;
      st.cursor[s] = cur;
    }
  }
}

FaultInjector::Counters FaultInjector::counters() const {
  Counters total;
  for (const auto& st : streams_) {
    total.ipis_dropped += st.n.ipis_dropped;
    total.ipis_delayed += st.n.ipis_delayed;
    total.ipis_duplicated += st.n.ipis_duplicated;
    total.timer_perturbed += st.n.timer_perturbed;
    total.spurious_irqs += st.n.spurious_irqs;
    total.stalls += st.n.stalls;
    total.stall_cycles_total += st.n.stall_cycles_total;
  }
  return total;
}

}  // namespace iw::hwsim
