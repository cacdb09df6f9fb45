#include "runtime/transport.h"

#include <memory>
#include <utility>

#include "runtime/backup_protocol.h"
#include "runtime/cluster.h"
#include "runtime/operator_instance.h"

namespace seep::runtime {

void SimTransport::AttachVm(VmId vm) { cluster_->network()->Attach(vm); }

void SimTransport::DetachVm(VmId vm) { cluster_->network()->Detach(vm); }

SendPressure SimTransport::SendBatch(OperatorInstance* from, InstanceId to,
                                     core::TupleBatch batch) {
  batch.from = from->id();
  Membership* members = cluster_->membership();
  const OperatorInstance* dest = members->GetInstance(to);
  if (dest == nullptr) return SendPressure::kNone;
  const uint64_t bytes = batch.SerializedSize();
  auto shared = std::make_shared<core::TupleBatch>(std::move(batch));
  cluster_->network()->Send(
      from->vm(), dest->vm(), bytes, [members, to, shared]() {
        OperatorInstance* target = members->GetInstance(to);
        if (target != nullptr) target->OnBatch(std::move(*shared));
      });
  return SendPressure::kNone;
}

void SimTransport::SendCheckpoint(const CheckpointRoute& route,
                                  core::StateCheckpoint ckpt) {
  const uint64_t bytes = ckpt.ByteSize();
  auto shared = std::make_shared<core::StateCheckpoint>(std::move(ckpt));
  Cluster* cluster = cluster_;
  cluster_->network()->Send(
      route.owner_vm, route.holder_vm, bytes,
      [cluster, route, shared]() {
        DeliverCheckpointToHolder(cluster, route.owner, route.holder,
                                  std::move(*shared));
      },
      /*background=*/true);
}

void SimTransport::ShipState(VmId from, VmId to, uint64_t size_bytes,
                             std::function<void()> on_delivery) {
  cluster_->network()->Send(from, to, size_bytes, std::move(on_delivery));
}

}  // namespace seep::runtime
