#include "src/nic/flow_cache.h"

#include "src/common/tracepoint.h"

namespace norman::nic {

namespace {
const std::string kSramCategory = "flow_cache";

telemetry::TraceFlow FlowOf(const FlowCacheKey& key) {
  return telemetry::TraceFlow{
      key.tuple.src_ip.addr,
      key.tuple.dst_ip.addr,
      key.tuple.src_port,
      key.tuple.dst_port,
      static_cast<uint8_t>(key.tuple.proto),
      key.direction == net::Direction::kTx ? telemetry::kDirTx
                                           : telemetry::kDirRx};
}
}  // namespace

FlowCache::FlowCache(SramAllocator* sram, telemetry::MetricsRegistry* registry)
    : sram_(sram),
      hits_(registry->GetCounter("fastpath.hits")),
      misses_(registry->GetCounter("fastpath.misses")),
      invalidations_(registry->GetCounter("fastpath.invalidations")),
      evictions_(registry->GetCounter("fastpath.evictions")),
      uncacheable_(registry->GetCounter("fastpath.uncacheable")),
      entries_(registry->GetGauge("fastpath.entries")),
      sram_gauge_(registry->GetGauge("fastpath.sram_bytes")) {
  parts_.resize(1);
  parts_[0].sram_category = kSramCategory;
}

FlowCache::~FlowCache() {
  for (Partition& part : parts_) {
    part.map.ForEach([&](const FlowCacheKey&, const FlowCacheEntry& entry) {
      sram_->Free(part.sram_category, kFlowCacheEntryBytes, entry.tenant);
    });
  }
}

uint32_t FlowCache::TpCore(const Partition& part) const {
  if (parts_.size() <= 1) {
    return telemetry::Tracepoints::kCoreNic;
  }
  return telemetry::Tracepoints::kCoreLaneBase +
         static_cast<uint32_t>(&part - parts_.data());
}

void FlowCache::Enable(size_t max_entries) {
  enabled_ = true;
  max_entries_ = max_entries;
  // Shrink each partition to its (possibly smaller) new share.
  for (Partition& part : parts_) {
    while (part.map.size() > PartitionCapacity()) EvictOne(part);
  }
}

void FlowCache::Disable() {
  enabled_ = false;
  Flush();
}

void FlowCache::Flush() {
  for (Partition& part : parts_) {
    part.map.ForEach([&](const FlowCacheKey&, const FlowCacheEntry& entry) {
      sram_->Free(part.sram_category, kFlowCacheEntryBytes, entry.tenant);
    });
    part.map.Clear();
  }
  count_ = 0;
  entries_->Set(0);
  sram_gauge_->Set(0);
}

void FlowCache::SetPartitions(uint16_t n) {
  if (n == 0) n = 1;
  if (n > kMaxPartitions) n = kMaxPartitions;
  Flush();
  parts_.clear();
  parts_.resize(n);
  if (n == 1) {
    parts_[0].sram_category = kSramCategory;
  } else {
    for (uint16_t p = 0; p < n; ++p) {
      parts_[p].sram_category = kSramCategory + ".q" + std::to_string(p);
    }
  }
}

void FlowCache::Invalidate() {
  // The epoch advances even while disabled so that entries minted before a
  // Disable/Enable cycle can never resurrect stale configuration.
  ++epoch_;
  if (enabled_) {
    invalidations_->Increment();
    if (tp_ != nullptr) {
      tp_->Emit(telemetry::Probe::kFlowCacheInvalidate,
                telemetry::Tracepoints::kCoreNic, /*pid=*/0, epoch_, count_);
    }
  }
}

void FlowCache::InvalidatePartition(uint16_t partition) {
  if (partition >= parts_.size()) return;
  Partition& part = parts_[partition];
  ++part.epoch;
  if (enabled_) {
    invalidations_->Increment();
    if (tp_ != nullptr) {
      tp_->Emit(telemetry::Probe::kFlowCacheInvalidate, TpCore(part),
                /*pid=*/0, epoch_ + part.epoch, part.map.size());
    }
  }
}

const FlowCacheEntry* FlowCache::Lookup(const FlowCacheKey& key,
                                        uint16_t partition) {
  if (!enabled_) return nullptr;
  Partition& part = parts_[partition];
  const Table::Index i = part.map.Find(key);
  if (i == Table::kNil) {
    misses_->Increment();
    return nullptr;
  }
  if (part.map.value(i).epoch != epoch_ + part.epoch) {
    // Minted under an older configuration: lazily discard.
    Erase(part, i);
    misses_->Increment();
    return nullptr;
  }
  part.map.Touch(i);  // MRU
  hits_->Increment();
  return &part.map.value(i);
}

void FlowCache::Insert(const FlowCacheKey& key, FlowCacheEntry entry,
                       uint16_t partition) {
  if (!enabled_) return;
  Partition& part = parts_[partition];
  entry.epoch = epoch_ + part.epoch;
  if (const Table::Index i = part.map.Find(key); i != Table::kNil) {
    part.map.value(i) = entry;
    part.map.Touch(i);
    return;
  }
  while (part.map.size() >= PartitionCapacity() && !part.map.empty()) {
    EvictOne(part);
  }
  // A tenant-attributed charge: when the owning tenant's quota is spent,
  // evicting the shared LRU tail cannot help, so the mint is just skipped
  // (a cache miss costs correctness nothing).
  while (!sram_
              ->Allocate(part.sram_category, kFlowCacheEntryBytes,
                         /*pid=*/0, entry.tenant)
              .ok()) {
    if (entry.tenant != 0 &&
        sram_->TenantQuota(entry.tenant) != 0 &&
        sram_->TenantUsed(entry.tenant) + kFlowCacheEntryBytes >
            sram_->TenantQuota(entry.tenant)) {
      return;
    }
    if (part.map.empty()) return;  // SRAM cannot cover even one entry
    EvictOne(part);
  }
  part.map.PushFront(key, entry);
  ++count_;
  entries_->Set(static_cast<int64_t>(count_));
  sram_gauge_->Set(static_cast<int64_t>(sram_bytes()));
  if (tp_ != nullptr) {
    const telemetry::TraceFlow flow = FlowOf(key);
    tp_->Emit(telemetry::Probe::kFlowCacheInstall, TpCore(part), /*pid=*/0,
              entry.epoch, count_, 0, &flow);
  }
}

void FlowCache::EvictOne(Partition& part) {
  const Table::Index victim = part.map.back();
  if (victim == Table::kNil) return;
  const telemetry::TraceFlow flow = FlowOf(part.map.key(victim));
  const uint32_t tenant = part.map.value(victim).tenant;
  part.map.EraseAt(victim);
  --count_;
  sram_->Free(part.sram_category, kFlowCacheEntryBytes, tenant);
  evictions_->Increment();
  entries_->Set(static_cast<int64_t>(count_));
  sram_gauge_->Set(static_cast<int64_t>(sram_bytes()));
  if (tp_ != nullptr) {
    tp_->Emit(telemetry::Probe::kFlowCacheEvict, TpCore(part), /*pid=*/0,
              count_, 0, 0, &flow);
  }
}

void FlowCache::Erase(Partition& part, Table::Index i) {
  const uint32_t tenant = part.map.value(i).tenant;
  part.map.EraseAt(i);
  --count_;
  sram_->Free(part.sram_category, kFlowCacheEntryBytes, tenant);
  entries_->Set(static_cast<int64_t>(count_));
  sram_gauge_->Set(static_cast<int64_t>(sram_bytes()));
}

}  // namespace norman::nic
