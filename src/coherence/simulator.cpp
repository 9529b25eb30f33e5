#include "coherence/simulator.hpp"

#include <bit>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace iw::coherence {

CoherenceSim::CoherenceSim(SimConfig cfg, Rng rng)
    : cfg_(cfg),
      rng_(rng),
      dir_(cfg.num_cores),
      noc_(cfg.noc, cfg.num_cores) {
  IW_ASSERT(cfg.num_cores >= 1 && cfg.num_cores <= 64);
  // Known defect (ROADMAP): dead store, noc_ was already built from cfg.noc.
  cfg_.noc.num_cores = cfg.num_cores;
  for (unsigned c = 0; c < cfg.num_cores; ++c) {
    caches_.push_back(std::make_unique<PrivateCache>(cfg.private_cache));
  }
}

void CoherenceSim::bind_substrate(substrate::StackSubstrate* sub) {
  sub_ = sub;
  cells_ = MetricCells{};
  if (sub_ == nullptr) return;
  IW_ASSERT_MSG(sub_->num_cores() >= cfg_.num_cores,
                "substrate has fewer cores than the coherence model");
  if (auto* mx = sub_->metrics()) {
    // Bind-time name lookups; access() must never touch the map.
    cells_.accesses = &mx->counter(obs::names::kCoherenceAccesses);
    cells_.private_hits = &mx->counter(obs::names::kCoherencePrivateHits);
    cells_.directory_lookups =
        &mx->counter(obs::names::kCoherenceDirectoryLookups);
    cells_.directory_updates =
        &mx->counter(obs::names::kCoherenceDirectoryUpdates);
    cells_.invalidations = &mx->counter(obs::names::kCoherenceInvalidations);
    cells_.three_hop = &mx->counter(obs::names::kCoherenceThreeHopTransfers);
    cells_.memory_fetches =
        &mx->counter(obs::names::kCoherenceMemoryFetches);
    cells_.handoff_flushes =
        &mx->counter(obs::names::kCoherenceHandoffFlushes);
    cells_.access_latency =
        &mx->histogram(obs::names::kCoherenceAccessLatency);
  }
}

void CoherenceSim::publish_delta(const SimStats& before, Cycles lat) {
  *cells_.accesses += stats_.accesses - before.accesses;
  *cells_.private_hits += stats_.private_hits - before.private_hits;
  *cells_.directory_lookups +=
      stats_.directory_lookups - before.directory_lookups;
  *cells_.directory_updates +=
      stats_.directory_updates - before.directory_updates;
  *cells_.invalidations += stats_.invalidations - before.invalidations;
  *cells_.three_hop +=
      stats_.three_hop_transfers - before.three_hop_transfers;
  *cells_.memory_fetches += stats_.memory_fetches - before.memory_fetches;
  *cells_.handoff_flushes += stats_.handoff_flushes - before.handoff_flushes;
  if (lat > 0) cells_.access_latency->add(lat);
}

bool CoherenceSim::deactivated(const Region& r) const {
  if (!cfg_.selective_deactivation) return false;
  if (r.cls == RegionClass::kTaskPrivate) return true;
  return cfg_.deactivate_read_only && r.cls == RegionClass::kReadOnly;
}

void CoherenceSim::evict(unsigned core, const CacheLine& line) {
  switch (line.state) {
    case LineState::kModified: {
      // Writeback to the home slice + directory update.
      const unsigned home = noc_.home_of(line.tag);
      noc_.message(core, home, /*carries_line=*/true);
      dir_.remove_core(line.tag, core);
      ++stats_.directory_updates;
      break;
    }
    case LineState::kExclusive:
    case LineState::kShared:
      // Notify the directory (explicit eviction keeps the full map exact).
      noc_.message(core, noc_.home_of(line.tag), false);
      dir_.remove_core(line.tag, core);
      ++stats_.directory_updates;
      break;
    case LineState::kIncoherent:
      // Deactivated line: no directory exists to notify. Dirty lines
      // write back straight to home; clean ones drop silently — this
      // silence is a large part of the energy win.
      if (line.dirty) noc_.message(core, noc_.home_of(line.tag), true);
      break;
    case LineState::kInvalid:
      break;
  }
}

Cycles CoherenceSim::fetch_from_home(Addr line, unsigned requester,
                                     unsigned home) {
  // LLC is modeled as capturing every line after its first fetch (the
  // directory/LLC capacity is not the variable under study); the first
  // touch pays DRAM, subsequent fetches pay the LLC bank.
  if (llc_seen_.insert(line)) {
    ++stats_.memory_fetches;
    const bool remote = noc_.socket_of(home) != noc_.socket_of(requester);
    return remote ? cfg_.lat.memory_remote : cfg_.lat.memory;
  }
  return cfg_.lat.llc_hit;
}

Cycles CoherenceSim::incoherent_access(const Access& a,
                                       const Region& region) {
  auto& cache = *caches_[a.core];
  CacheLine* line = cache.find(a.addr);
  if (line != nullptr) {
    IW_ASSERT_MSG(line->state == LineState::kIncoherent,
                  "region class changed under a live line");
    if (a.type == AccessType::kWrite) line->dirty = true;
    ++stats_.private_hits;
    return cfg_.lat.private_hit;
  }
  const Addr laddr = cache.line_addr(a.addr);
  if (a.type == AccessType::kWrite && region.streaming_writes) {
    // Compiler-proven streaming store: the whole line will be produced,
    // so allocate it dirty with zero interconnect traffic.
    auto evicted = cache.insert(a.addr, LineState::kIncoherent, region.id);
    if (evicted) evict(a.core, *evicted);
    cache.find(a.addr)->dirty = true;
    llc_seen_.insert(laddr);  // home copy materializes at writeback
    return cfg_.lat.private_hit;
  }
  // Miss: fetch straight from home LLC/memory — 2 hops, no directory
  // lookup, no RFO/invalidation round, no sharer bookkeeping. (Partial
  // writes still fetch the line for the merge.)
  const unsigned home = noc_.home_of(laddr);
  Cycles lat = cfg_.lat.private_hit;
  lat += noc_.message(a.core, home, false);  // request
  lat += fetch_from_home(laddr, a.core, home);
  lat += noc_.message(home, a.core, true);   // data reply
  auto evicted = cache.insert(a.addr, LineState::kIncoherent, region.id);
  if (evicted) evict(a.core, *evicted);
  if (a.type == AccessType::kWrite) cache.find(a.addr)->dirty = true;
  return lat;
}

Cycles CoherenceSim::coherent_access(const Access& a, const Region& region) {
  auto& cache = *caches_[a.core];
  const Addr line_addr = cache.line_addr(a.addr);
  CacheLine* line = cache.find(a.addr);

  // --- private hit paths ---
  if (line != nullptr) {
    IW_ASSERT(line->state != LineState::kIncoherent ||
              !cfg_.selective_deactivation);
    if (a.type == AccessType::kRead) {
      ++stats_.private_hits;
      return cfg_.lat.private_hit;
    }
    // Write hit:
    if (line->state == LineState::kModified ||
        line->state == LineState::kExclusive) {
      line->state = LineState::kModified;
      dir_.set_owner(line_addr, a.core);
      ++stats_.private_hits;
      return cfg_.lat.private_hit;
    }
    // Write to Shared: upgrade — invalidate other sharers via directory.
    const unsigned home = noc_.home_of(line_addr);
    Cycles lat = cfg_.lat.private_hit;
    lat += noc_.message(a.core, home, false);
    lat += cfg_.lat.directory_lookup;
    ++stats_.directory_lookups;
    auto& e = dir_.entry(line_addr);
    Cycles worst_ack = 0;
    for (unsigned c = 0; c < cfg_.num_cores; ++c) {
      if (c == a.core || !(e.sharers & (1ULL << c))) continue;
      noc_.message(home, c, false);  // invalidation
      caches_[c]->invalidate(line_addr);
      ++stats_.invalidations;
      const Cycles ack = noc_.message(c, a.core, false) +
                         cfg_.lat.invalidate_ack;
      worst_ack = std::max(worst_ack, ack);
    }
    lat += worst_ack;
    dir_.set_owner(line_addr, a.core);
    line->state = LineState::kModified;
    return lat;
  }

  // --- miss: go to the home directory ---
  const unsigned home = noc_.home_of(line_addr);
  Cycles lat = cfg_.lat.private_hit;
  lat += noc_.message(a.core, home, false);
  lat += cfg_.lat.directory_lookup;
  ++stats_.directory_lookups;
  auto& e = dir_.entry(line_addr);

  LineState fill_state;
  if (a.type == AccessType::kRead) {
    if (e.state == DirState::kOwnedBy) {
      // 3-hop: forward to the M/E owner, who downgrades to S and
      // supplies the data.
      const unsigned owner = e.owner;
      lat += noc_.message(home, owner, false);
      auto* oline = caches_[owner]->find(line_addr);
      if (oline != nullptr) oline->state = LineState::kShared;
      lat += noc_.message(owner, a.core, true);
      ++stats_.three_hop_transfers;
      dir_.add_sharer(line_addr, owner);
      dir_.add_sharer(line_addr, a.core);
      fill_state = LineState::kShared;
    } else if (e.state == DirState::kSharedBy) {
      lat += cfg_.lat.llc_hit;
      lat += noc_.message(home, a.core, true);
      dir_.add_sharer(line_addr, a.core);
      fill_state = LineState::kShared;
    } else {
      // Sole reader: grant Exclusive and record *ownership* in the
      // directory, so a later reader's miss forwards here and
      // downgrades this copy — otherwise an E copy would silently
      // coexist with S copies (a SWMR violation the invariant tests
      // caught).
      lat += fetch_from_home(line_addr, a.core, home);
      lat += noc_.message(home, a.core, true);
      dir_.set_owner(line_addr, a.core);
      fill_state = LineState::kExclusive;
    }
  } else {
    // Write miss: invalidate every current copy.
    if (e.state == DirState::kOwnedBy) {
      const unsigned owner = e.owner;
      lat += noc_.message(home, owner, false);
      caches_[owner]->invalidate(line_addr);
      ++stats_.invalidations;
      lat += noc_.message(owner, a.core, true);  // dirty data forwarded
      ++stats_.three_hop_transfers;
    } else if (e.state == DirState::kSharedBy) {
      Cycles worst_ack = 0;
      for (unsigned c = 0; c < cfg_.num_cores; ++c) {
        if (c == a.core || !(e.sharers & (1ULL << c))) continue;
        noc_.message(home, c, false);
        caches_[c]->invalidate(line_addr);
        ++stats_.invalidations;
        const Cycles ack = noc_.message(c, a.core, false) +
                           cfg_.lat.invalidate_ack;
        worst_ack = std::max(worst_ack, ack);
      }
      lat += cfg_.lat.llc_hit + worst_ack;
      lat += noc_.message(home, a.core, true);
    } else {
      lat += fetch_from_home(line_addr, a.core, home);
      lat += noc_.message(home, a.core, true);
    }
    dir_.set_owner(line_addr, a.core);
    fill_state = LineState::kModified;
  }

  auto evicted = caches_[a.core]->insert(a.addr, fill_state, region.id);
  if (evicted) evict(a.core, *evicted);
  return lat;
}

Cycles CoherenceSim::access(const Access& a, const Region& region) {
  if (cells_.accesses == nullptr) return serve(a, region);
  const SimStats before = stats_;
  const Cycles lat = serve(a, region);
  publish_delta(before, lat);
  return lat;
}

Cycles CoherenceSim::serve(const Access& a, const Region& region) {
  ++stats_.accesses;
  Cycles lat = deactivated(region) ? incoherent_access(a, region)
                                   : coherent_access(a, region);
  if (cfg_.access_jitter_max > 0) {
    lat += rng_.uniform(0, cfg_.access_jitter_max);
  }
  stats_.total_latency += lat;
  if (sub_ != nullptr) {
    // The interweaving step: the access's price lands on the owning
    // core's clock, so everything scheduled after it on that core (the
    // next heartbeat poll, the next driver step) genuinely waits.
    const Cycles begin = sub_->core_now(a.core);
    sub_->charge(a.core, lat);
    // Span misses only — private hits at trace granularity would drown
    // the timeline (they still stream into the metrics).
    if (lat > cfg_.lat.private_hit) {
      sub_->trace_span(a.core, "coherence.miss", begin, begin + lat);
    }
  }
  return lat;
}

void CoherenceSim::handoff(const Handoff& h, const Trace& trace) {
  const Region& r = trace.region_of(h.region);
  if (!deactivated(r)) return;  // coherent regions need no flush
  const bool publish = cells_.accesses != nullptr;
  SimStats before;
  if (publish) before = stats_;
  Cycles flush_cost = 0;
  auto& cache = *caches_[h.from_core];
  for (const CacheLine& line : cache.lines_in_region(h.region)) {
    // Dirty lines write back to home; clean ones just drop. The new
    // owner fetches fresh copies on demand.
    if (line.dirty) {
      noc_.message(h.from_core, noc_.home_of(line.tag), true);
      flush_cost += cfg_.lat.flush_line;
    }
    cache.invalidate(line.tag);
    ++stats_.handoff_flushes;
  }
  stats_.total_latency += flush_cost;
  if (sub_ != nullptr) {
    const Cycles begin = sub_->core_now(h.from_core);
    if (flush_cost > 0) {
      sub_->charge(h.from_core, flush_cost);
      sub_->trace_span(h.from_core, "coherence.handoff_flush", begin,
                       begin + flush_cost);
    } else {
      sub_->trace_instant(h.from_core, "coherence.handoff", begin);
    }
  }
  if (publish) publish_delta(before, 0);
}

SimStats CoherenceSim::run(const Trace& trace) {
  std::size_t next_handoff = 0;
  for (std::size_t i = 0; i < trace.accesses.size(); ++i) {
    const Access& a = trace.accesses[i];
    IW_ASSERT(a.core < cfg_.num_cores);
    access(a, trace.region_of(a.region));
    while (next_handoff < trace.handoffs.size() &&
           trace.handoffs[next_handoff].after_access == i) {
      handoff(trace.handoffs[next_handoff], trace);
      ++next_handoff;
    }
  }
  return stats();
}

SimStats CoherenceSim::stats() const {
  SimStats s = stats_;
  s.noc = noc_.stats();
  return s;
}

}  // namespace iw::coherence
