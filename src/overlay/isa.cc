#include "src/overlay/isa.h"

#include <array>

namespace norman::overlay {

bool IsJump(Opcode op) {
  switch (op) {
    case Opcode::kJmp:
    case Opcode::kJeq:
    case Opcode::kJne:
    case Opcode::kJgt:
    case Opcode::kJlt:
    case Opcode::kJge:
    case Opcode::kJle:
      return true;
    default:
      return false;
  }
}

std::string_view OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kNop:
      return "nop";
    case Opcode::kLdi:
      return "ldi";
    case Opcode::kLdf:
      return "ldf";
    case Opcode::kLdb:
      return "ldb";
    case Opcode::kAdd:
      return "add";
    case Opcode::kSub:
      return "sub";
    case Opcode::kAnd:
      return "and";
    case Opcode::kOr:
      return "or";
    case Opcode::kXor:
      return "xor";
    case Opcode::kShl:
      return "shl";
    case Opcode::kShr:
      return "shr";
    case Opcode::kMul:
      return "mul";
    case Opcode::kJmp:
      return "jmp";
    case Opcode::kJeq:
      return "jeq";
    case Opcode::kJne:
      return "jne";
    case Opcode::kJgt:
      return "jgt";
    case Opcode::kJlt:
      return "jlt";
    case Opcode::kJge:
      return "jge";
    case Opcode::kJle:
      return "jle";
    case Opcode::kRet:
      return "ret";
  }
  return "?";
}

namespace {

struct FieldNameEntry {
  Field field;
  std::string_view name;
};

constexpr std::array<FieldNameEntry, 20> kFieldNames = {{
    {Field::kPktLen, "pkt_len"},
    {Field::kEthType, "eth_type"},
    {Field::kIsIpv4, "is_ipv4"},
    {Field::kIsArp, "is_arp"},
    {Field::kArpOp, "arp_op"},
    {Field::kIpProto, "ip_proto"},
    {Field::kIpSrc, "ip_src"},
    {Field::kIpDst, "ip_dst"},
    {Field::kIpDscp, "ip_dscp"},
    {Field::kIpTtl, "ip_ttl"},
    {Field::kSrcPort, "src_port"},
    {Field::kDstPort, "dst_port"},
    {Field::kTcpFlags, "tcp_flags"},
    {Field::kPayloadLen, "payload_len"},
    {Field::kConnId, "conn_id"},
    {Field::kOwnerUid, "owner_uid"},
    {Field::kOwnerPid, "owner_pid"},
    {Field::kOwnerCgroup, "owner_cgroup"},
    {Field::kOwnerComm, "owner_comm"},
    {Field::kDirection, "direction"},
}};

}  // namespace

std::string_view FieldName(Field f) {
  for (const auto& e : kFieldNames) {
    if (e.field == f) {
      return e.name;
    }
  }
  return "?";
}

bool FieldFromName(std::string_view name, Field* out) {
  for (const auto& e : kFieldNames) {
    if (e.name == name) {
      *out = e.field;
      return true;
    }
  }
  return false;
}

}  // namespace norman::overlay
