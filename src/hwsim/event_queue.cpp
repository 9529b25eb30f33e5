#include "hwsim/event_queue.hpp"

#include <utility>

namespace iw::hwsim {

template <class EventT>
void TimedQueue<EventT>::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!later(heap_[parent], heap_[i])) break;
    std::swap(heap_[parent], heap_[i]);
    i = parent;
  }
}

template <class EventT>
void TimedQueue<EventT>::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t smallest = i;
    const std::size_t l = 2 * i + 1;
    const std::size_t r = 2 * i + 2;
    if (l < n && later(heap_[smallest], heap_[l])) smallest = l;
    if (r < n && later(heap_[smallest], heap_[r])) smallest = r;
    if (smallest == i) return;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

template class TimedQueue<IrqEvent>;
template class TimedQueue<CoreEvent>;
template class TimedQueue<Event>;

}  // namespace iw::hwsim
