#include "workloads/coherence_driver.hpp"

#include "common/assert.hpp"
#include "hwsim/machine.hpp"

namespace iw::workloads {

CoherenceDriver::CoherenceDriver(coherence::CoherenceSim& sim,
                                 unsigned num_cores, Config cfg, Rng rng)
    : sim_(sim), cfg_(cfg) {
  IW_ASSERT(num_cores >= 1);
  IW_ASSERT(cfg.accesses_per_step >= 1);
  layout_.name = "coherence_driver";

  coherence::Region shared;
  shared.id = 0;
  shared.base = 0x1000'0000;
  shared.size = cfg.shared_lines * cfg.line_bytes;
  shared.cls = coherence::RegionClass::kShared;
  shared.name = "shared";
  layout_.regions.push_back(shared);

  for (unsigned c = 0; c < num_cores; ++c) {
    coherence::Region r;
    r.id = 1 + c;
    // Regions spaced well apart so lines never alias across regions.
    r.base = 0x2000'0000 + static_cast<Addr>(c) * 0x0100'0000;
    r.size = cfg.private_lines * cfg.line_bytes;
    r.cls = coherence::RegionClass::kTaskPrivate;
    r.name = "private-" + std::to_string(c);
    layout_.regions.push_back(r);
    owned_region_.push_back(r.id);
    // Per-core streams drawn once, in core order: construction is the
    // only consumer of `rng`, so the streams are a pure function of the
    // seed regardless of scheduler choice.
    rngs_.emplace_back(rng.next_u64());
  }
  steps_.assign(num_cores, 0);
}

bool CoherenceDriver::runnable(hwsim::Core& core) {
  return cfg_.steps_per_core == 0 || steps_[core.id()] < cfg_.steps_per_core;
}

void CoherenceDriver::step(hwsim::Core& core) {
  // Every core's accesses go through one shared directory.
  core.machine().require_sequential("workloads::CoherenceDriver");
  const CoreId id = core.id();
  Rng& rng = rngs_[id];
  core.consume(cfg_.compute_per_step);
  for (unsigned i = 0; i < cfg_.accesses_per_step; ++i) {
    const bool go_shared = rng.chance(cfg_.shared_fraction);
    const coherence::Region& r =
        layout_.regions[go_shared ? 0 : owned_region_[id]];
    const std::uint64_t lines = r.size / cfg_.line_bytes;
    coherence::Access a;
    a.core = id;
    a.type = rng.chance(cfg_.write_fraction) ? coherence::AccessType::kWrite
                                             : coherence::AccessType::kRead;
    a.addr = r.base + rng.uniform(0, lines - 1) * cfg_.line_bytes;
    a.region = r.id;
    // Bound to the machine, this charges the miss latency to `core`'s
    // clock — the driver needs no explicit consume for memory time.
    sim_.access(a, r);
    ++accesses_;
  }
  ++steps_[id];
}

void CoherenceDriver::handoff_private(CoreId from, CoreId to) {
  coherence::Handoff h;
  h.region = owned_region_[from];
  h.from_core = from;
  h.to_core = to;
  sim_.handoff(h, layout_);
  // The regions swap owners: `to` now works in `from`'s old region.
  std::swap(owned_region_[from], owned_region_[to]);
}

}  // namespace iw::workloads
