// Built-in default TX discipline: a bounded FIFO. This is what the hardware
// ships with before the kernel installs a richer qdisc (src/dataplane).
#ifndef NORMAN_NIC_FIFO_SCHEDULER_H_
#define NORMAN_NIC_FIFO_SCHEDULER_H_

#include <deque>

#include "src/nic/pipeline.h"

namespace norman::nic {

class FifoScheduler : public Scheduler {
 public:
  explicit FifoScheduler(size_t capacity_packets = 4096)
      : capacity_(capacity_packets) {}

  std::string_view name() const override { return "fifo"; }

  bool Enqueue(net::PacketPtr packet,
               const overlay::PacketContext& /*ctx*/) override {
    if (queue_.size() >= capacity_) {
      return false;
    }
    queue_.push_back(std::move(packet));
    return true;
  }

  net::PacketPtr Dequeue(Nanos /*now*/) override {
    if (queue_.empty()) {
      return nullptr;
    }
    net::PacketPtr p = std::move(queue_.front());
    queue_.pop_front();
    return p;
  }

  Nanos NextEligibleTime(Nanos /*now*/) const override { return -1; }

  size_t backlog_packets() const override { return queue_.size(); }

 private:
  size_t capacity_;
  std::deque<net::PacketPtr> queue_;
};

}  // namespace norman::nic

#endif  // NORMAN_NIC_FIFO_SCHEDULER_H_
