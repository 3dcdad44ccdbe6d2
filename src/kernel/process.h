// Simulated OS process model: processes, users, cgroups, comm interning.
//
// This is the "process view" side of KOPI: hypervisors and in-network
// devices cannot see these tables, which is why they cannot enforce
// user/process-scoped policies (§2). The kernel consults this table at
// connection setup and stamps the owner metadata into the NIC flow table.
#ifndef NORMAN_KERNEL_PROCESS_H_
#define NORMAN_KERNEL_PROCESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "src/common/status.h"

namespace norman::kernel {

using Pid = uint32_t;
using Uid = uint32_t;
using CgroupId = uint32_t;

inline constexpr Uid kRootUid = 0;
inline constexpr CgroupId kRootCgroup = 1;

enum class ProcessState : uint8_t {
  kRunning = 0,
  kBlocked,
  kExited,
};

struct Process {
  Pid pid = 0;
  Uid uid = 0;
  std::string comm;       // executable name, e.g. "postgres"
  uint32_t comm_id = 0;   // interned id (for overlay owner_comm matches)
  CgroupId cgroup = kRootCgroup;
  ProcessState state = ProcessState::kRunning;
};

class ProcessTable {
 public:
  ProcessTable() {
    // uid 0 is always known.
    users_[kRootUid] = "root";
    cgroups_[kRootCgroup] = "/";
  }

  Uid AddUser(Uid uid, std::string name) {
    users_[uid] = std::move(name);
    return uid;
  }

  StatusOr<CgroupId> CreateCgroup(const std::string& path) {
    for (const auto& [id, p] : cgroups_) {
      if (p == path) {
        return AlreadyExistsError("cgroup exists: " + path);
      }
    }
    const CgroupId id = next_cgroup_++;
    cgroups_[id] = path;
    return id;
  }

  // Spawns a process owned by `uid` running `comm`.
  StatusOr<Pid> Spawn(Uid uid, const std::string& comm,
                      CgroupId cgroup = kRootCgroup) {
    if (!users_.contains(uid)) {
      return NotFoundError("unknown uid " + std::to_string(uid));
    }
    if (!cgroups_.contains(cgroup)) {
      return NotFoundError("unknown cgroup " + std::to_string(cgroup));
    }
    Process p;
    p.pid = next_pid_++;
    p.uid = uid;
    p.comm = comm;
    p.comm_id = InternComm(comm);
    p.cgroup = cgroup;
    processes_.emplace(p.pid, p);
    return p.pid;
  }

  Status MoveToCgroup(Pid pid, CgroupId cgroup) {
    Process* p = Lookup(pid);
    if (p == nullptr) {
      return NotFoundError("no such pid");
    }
    if (!cgroups_.contains(cgroup)) {
      return NotFoundError("no such cgroup");
    }
    p->cgroup = cgroup;
    return OkStatus();
  }

  Process* Lookup(Pid pid) {
    const auto it = processes_.find(pid);
    return it == processes_.end() ? nullptr : &it->second;
  }
  const Process* Lookup(Pid pid) const {
    const auto it = processes_.find(pid);
    return it == processes_.end() ? nullptr : &it->second;
  }

  // Interns a comm string; same string -> same id. Id 0 is never assigned.
  uint32_t InternComm(const std::string& comm) {
    const auto it = comm_ids_.find(comm);
    if (it != comm_ids_.end()) {
      return it->second;
    }
    const uint32_t id = next_comm_id_++;
    comm_ids_.emplace(comm, id);
    comm_names_.emplace(id, comm);
    return id;
  }

  std::string CommName(uint32_t comm_id) const {
    const auto it = comm_names_.find(comm_id);
    return it == comm_names_.end() ? "?" : it->second;
  }

  std::string UserName(Uid uid) const {
    const auto it = users_.find(uid);
    return it == users_.end() ? "?" : it->second;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [pid, p] : processes_) {
      fn(p);
    }
  }

  size_t size() const { return processes_.size(); }

 private:
  Pid next_pid_ = 100;
  CgroupId next_cgroup_ = 2;
  uint32_t next_comm_id_ = 1;
  std::map<Pid, Process> processes_;
  std::map<Uid, std::string> users_;
  std::map<CgroupId, std::string> cgroups_;
  std::unordered_map<std::string, uint32_t> comm_ids_;
  std::unordered_map<uint32_t, std::string> comm_names_;
};

}  // namespace norman::kernel

#endif  // NORMAN_KERNEL_PROCESS_H_
