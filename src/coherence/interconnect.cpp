#include "coherence/interconnect.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace iw::coherence {

Interconnect::Interconnect(InterconnectConfig cfg, unsigned ids) : cfg_(cfg) {
  IW_ASSERT_MSG(cfg.sockets >= 1 && cfg.num_cores >= cfg.sockets,
                "Interconnect: fewer cores than sockets");
  const unsigned per_socket = cfg.num_cores / cfg.sockets;
  cross_hops_ = per_socket / 2 + 1;
  place_.resize(std::max(ids, cfg.num_cores));
  for (unsigned id = 0; id < place_.size(); ++id) {
    place_[id] = Place{id / per_socket, id % per_socket};
  }
}

}  // namespace iw::coherence
