// MMIO register space of the simulated SmartNIC, with privilege separation.
//
// The paper's Figure 1 shows two access paths to the NIC: the kernel
// configures the dataplane through privileged configuration registers, and
// each application gets access to exactly the MMIO doorbell registers (ring
// head/tail) of its own connections. We model that by handing out capability
// objects:
//   * PrivilegedMmio  — full register file; only the kernel holds one.
//   * DoorbellWindow  — a narrow window onto one connection's four ring
//     registers; this is what the kernel maps into an application.
// Any attempt to reach a register outside a window is a PermissionDenied —
// the hardware would fault the access.
#ifndef NORMAN_NIC_MMIO_H_
#define NORMAN_NIC_MMIO_H_

#include <cstddef>
#include <cstdint>

#include "src/common/slab_map.h"
#include "src/common/status.h"

namespace norman::nic {

// Register addresses are 32-bit word indices. Layout:
//   [0x0000, 0x1000)   global config (privileged)
//   [0x1000, ...)      per-connection doorbell blocks, 4 words each:
//     +0 TX head (app writes to publish descriptors)
//     +1 TX tail (NIC writes as it consumes)
//     +2 RX head (NIC writes as packets arrive)
//     +3 RX tail (app writes to return buffers)
using MmioAddr = uint32_t;

inline constexpr MmioAddr kDoorbellBase = 0x1000;
inline constexpr MmioAddr kDoorbellWordsPerConn = 4;

// Fault-injection config registers (global config space, privileged). The
// kernel's control plane drives NIC-side fault campaigns through these; the
// registers exist so chaos tooling works the way every other knob does —
// through MMIO — instead of through a debug backdoor.
//   kRegFaultSramPressure: bytes of SRAM currently held hostage (read-back).
//   kRegFaultNotifyStall:  1 = notification delivery stalled, 0 = flowing.
inline constexpr MmioAddr kRegFaultSramPressure = 0x0100;
inline constexpr MmioAddr kRegFaultNotifyStall = 0x0108;

inline constexpr MmioAddr kRegTxHead = 0;
inline constexpr MmioAddr kRegTxTail = 1;
inline constexpr MmioAddr kRegRxHead = 2;
inline constexpr MmioAddr kRegRxTail = 3;

inline MmioAddr DoorbellAddr(uint32_t conn_id, MmioAddr reg) {
  return kDoorbellBase + conn_id * kDoorbellWordsPerConn + reg;
}

// The backing register file. The SmartNic owns one; capabilities reference
// it. Unwritten registers read as zero; the first write to a register
// takes a slot, and ClearDoorbell frees a connection's block when its flow
// is removed, so the file holds only live registers and a new connection
// reuses a closed one's slots.
class RegisterFile {
 public:
  uint32_t Read(MmioAddr addr) const {
    const uint32_t* value = regs_.Get(addr);
    return value == nullptr ? 0 : *value;
  }
  void Write(MmioAddr addr, uint32_t value) {
    if (uint32_t* reg = regs_.Get(addr); reg != nullptr) {
      *reg = value;
    } else {
      regs_.PushFront(addr, value);
    }
  }
  // Frees the connection's four doorbell words; they read 0 afterwards.
  void ClearDoorbell(uint32_t conn_id) {
    for (MmioAddr reg = kRegTxHead; reg <= kRegRxTail; ++reg) {
      regs_.Erase(DoorbellAddr(conn_id, reg));
    }
  }
  // Registers currently holding a written value.
  size_t size() const { return regs_.size(); }

  uint64_t read_count() const { return read_count_; }
  uint64_t write_count() const { return write_count_; }
  void CountRead() const { ++read_count_; }
  void CountWrite() { ++write_count_; }

 private:
  SlabMap<MmioAddr, uint32_t> regs_;
  mutable uint64_t read_count_ = 0;
  uint64_t write_count_ = 0;
};

// Full access; constructed once by the SmartNic and given to the kernel.
class PrivilegedMmio {
 public:
  explicit PrivilegedMmio(RegisterFile* regs) : regs_(regs) {}

  uint32_t Read(MmioAddr addr) const {
    regs_->CountRead();
    return regs_->Read(addr);
  }
  void Write(MmioAddr addr, uint32_t value) {
    regs_->CountWrite();
    regs_->Write(addr, value);
  }
  // Registers currently holding a written value (not an MMIO access).
  size_t register_count() const { return regs_->size(); }

 private:
  RegisterFile* regs_;
};

// Application-visible window over one connection's doorbell block.
class DoorbellWindow {
 public:
  DoorbellWindow() : regs_(nullptr), conn_id_(0) {}
  DoorbellWindow(RegisterFile* regs, uint32_t conn_id)
      : regs_(regs), conn_id_(conn_id) {}

  bool valid() const { return regs_ != nullptr; }
  uint32_t conn_id() const { return conn_id_; }

  // reg must be one of kRegTxHead..kRegRxTail; anything else faults.
  StatusOr<uint32_t> Read(MmioAddr reg) const {
    NORMAN_RETURN_IF_ERROR(CheckReg(reg));
    regs_->CountRead();
    return regs_->Read(DoorbellAddr(conn_id_, reg));
  }

  Status Write(MmioAddr reg, uint32_t value) {
    NORMAN_RETURN_IF_ERROR(CheckReg(reg));
    regs_->CountWrite();
    regs_->Write(DoorbellAddr(conn_id_, reg), value);
    return OkStatus();
  }

 private:
  Status CheckReg(MmioAddr reg) const {
    if (!valid()) {
      return PermissionDeniedError("doorbell window not mapped");
    }
    if (reg > kRegRxTail) {
      return PermissionDeniedError(
          "MMIO access outside mapped doorbell window");
    }
    return OkStatus();
  }

  RegisterFile* regs_;
  uint32_t conn_id_;
};

}  // namespace norman::nic

#endif  // NORMAN_NIC_MMIO_H_
