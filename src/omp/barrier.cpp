#include "omp/barrier.hpp"

#include <cstdio>
#include <cstdlib>

#include "hwsim/machine.hpp"

namespace iw::omp {

void SpinBarrier::check_timeout(hwsim::Core& core, Cycles entered) const {
  if (timeout_ == 0) return;
  const Cycles now = core.clock();
  if (now <= entered || now - entered <= timeout_) return;
  std::fprintf(stderr,
               "PANIC: omp barrier timeout on core %u: waited %llu cycles "
               "(limit %llu), %u/%u arrived\n",
               core.id(), static_cast<unsigned long long>(now - entered),
               static_cast<unsigned long long>(timeout_), count_, parties_);
  core.machine().dump_state(stderr);
  std::abort();
}

void SpinBarrier::check_poll_order(hwsim::Core& core, Cycles last_poll) const {
  if (last_poll == kNever || last_poll < flip_at_ ||
      (last_poll == flip_at_ && core.id() < flip_core_)) {
    return;
  }
  std::fprintf(stderr,
               "PANIC: omp spin wait polled past the barrier flip: worker %u "
               "polled at cycle %llu, but core %u flipped generation %llu at "
               "cycle %llu\n",
               core.id(), static_cast<unsigned long long>(last_poll),
               flip_core_, static_cast<unsigned long long>(generation_ - 1),
               static_cast<unsigned long long>(flip_at_));
  core.machine().dump_state(stderr);
  std::abort();
}

std::uint64_t SpinBarrier::arrive(hwsim::Core& core) {
  const Cycles at = core.clock();
  core.consume(core.costs().atomic_rmw);
  const std::uint64_t gen = generation_;
  if (++count_ >= parties_) {
    count_ = 0;
    ++generation_;
    flip_at_ = at;
    flip_core_ = core.id();
  }
  return gen;
}

FutexBarrier::Arrival FutexBarrier::arrive(hwsim::Core& core,
                                           Cycles work_done) {
  core.consume(core.costs().atomic_rmw);
  Arrival a;
  if (++count_ >= parties_) {
    count_ = 0;
    a.last = true;
    // Serial wake chain on the last arriver's core.
    futex_.wake_all(core, addr_);
    return a;
  }
  a.last = false;
  a.block = futex_.wait(core, addr_, work_done);
  return a;
}

}  // namespace iw::omp
