#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "sim/fabric.hpp"
#include "via/memory.hpp"
#include "via/types.hpp"

namespace via {

class Vi;
class Listener;

/// A VIA NIC instance on one cluster node (VipOpenNic). Owns the node's
/// registered-memory table and hands out protection tags. Memory
/// registration through the NIC charges the registration cost to the calling
/// actor — this is the quantity the registration-cache ablation measures.
class Nic {
 public:
  Nic(sim::Fabric& fabric, sim::NodeId node, std::string name);
  ~Nic();

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  sim::Fabric& fabric() const { return fabric_; }
  sim::NodeId node_id() const { return node_; }
  const std::string& name() const { return name_; }
  MemoryRegistry& memory() { return memory_; }
  const sim::CostModel& cost() const { return fabric_.cost(); }

  /// Allocate a protection tag (VipCreatePtag).
  ProtectionTag create_ptag() { return next_ptag_.fetch_add(1); }

  /// Register memory for NIC access (VipRegisterMem). Charges the current
  /// actor the pin cost. Returns kInvalidMemHandle when the NIC is out of
  /// registration resources (VIP_ERROR_RESOURCE) — which the fabric's fault
  /// plan can inject on demand.
  [[nodiscard]] MemHandle register_memory(void* base, std::size_t len,
                                          ProtectionTag tag,
                                          MemAttrs attrs = {});

  /// Deregister (VipDeregisterMem). Charges the unpin cost.
  [[nodiscard]] Status deregister_memory(MemHandle h);

  /// Connect `vi` (must be idle) to whatever Listener is bound to `service`
  /// on the fabric name service. Blocks for the accept until `timeout`, a
  /// host watchdog.
  [[nodiscard]] Status connect(Vi& vi, const std::string& service,
                               std::chrono::milliseconds timeout);

 private:
  sim::Fabric& fabric_;
  sim::NodeId node_;
  std::string name_;
  MemoryRegistry memory_;
  std::atomic<ProtectionTag> next_ptag_{1};
};

}  // namespace via
