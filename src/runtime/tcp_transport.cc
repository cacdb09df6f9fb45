#include "runtime/tcp_transport.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/macros.h"
#include "common/sync.h"
#include "common/time.h"
#include "net/local_cluster.h"
#include "net/wire.h"
#include "runtime/backup_protocol.h"
#include "runtime/cluster.h"
#include "runtime/operator_instance.h"
#include "serde/decoder.h"
#include "serde/encoder.h"

namespace seep::runtime {
namespace {

// Sim interval between inbox pumps: how often deliveries that arrived on
// worker threads re-enter the (single-threaded) simulated runtime.
constexpr SimTime kPumpInterval = MillisToSim(1);
// Bulk state shipping sends min(logical size, this cap) of real filler
// bytes; the logical size still travels in the message.
constexpr uint64_t kShipPayloadCap = 1u << 20;

/// A kCheckpoint message body: varint owner | varint holder |
/// StateCheckpoint::Encode.
struct CheckpointBody {
  InstanceId owner = kInvalidInstance;
  InstanceId holder = kInvalidInstance;
  core::StateCheckpoint ckpt;
};

[[nodiscard]] Result<CheckpointBody> DecodeCheckpointBody(
    const std::vector<uint8_t>& bytes) {
  serde::Decoder dec(bytes);
  CheckpointBody body;
  SEEP_ASSIGN_OR_RETURN(const uint64_t owner, dec.ReadVarint64());
  SEEP_ASSIGN_OR_RETURN(const uint64_t holder, dec.ReadVarint64());
  constexpr uint64_t kMaxId = std::numeric_limits<InstanceId>::max();
  if (owner > kMaxId || holder > kMaxId) {
    return Status::Corruption("checkpoint owner/holder id out of range");
  }
  body.owner = static_cast<InstanceId>(owner);
  body.holder = static_cast<InstanceId>(holder);
  SEEP_ASSIGN_OR_RETURN(body.ckpt, core::StateCheckpoint::Decode(&dec));
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes after the checkpoint");
  }
  return body;
}

}  // namespace

/// Everything shared between the sim driver thread and the worker threads.
/// Invariant: `in_flight[vm]` over-approximates messages addressed to `vm`
/// that were accepted by the net layer but have not yet reached the inbox —
/// it is zeroed when `vm` detaches (traffic to a dead VM is dead by
/// definition) and decrements are clamped, so the pump's bounded wait can
/// never wedge on a lost frame.
struct TcpTransport::Impl {
  net::LocalCluster cluster
      SEEP_UNGUARDED("internally synchronised; local_cluster.h");

  sync::Mutex mu;
  sync::CondVar cv;
  std::deque<net::Message> inbox SEEP_GUARDED_BY(mu);
  std::unordered_map<VmId, uint64_t> in_flight SEEP_GUARDED_BY(mu);
  uint64_t total_in_flight SEEP_GUARDED_BY(mu) = 0;

  // Pending ShipState completions, keyed by ship_id. Driver thread only —
  // never touched by the worker-thread callbacks.
  struct ShipEntry {
    VmId to = kInvalidVm;
    std::function<void()> on_delivery;
  };
  std::unordered_map<uint64_t, ShipEntry> ships
      SEEP_GUARDED_BY(sync::DriverThread);
  uint64_t next_ship_id SEEP_GUARDED_BY(sync::DriverThread) = 0;

  std::atomic<uint64_t> disconnects{0};

  void DecInFlightLocked(VmId vm, uint64_t n) SEEP_REQUIRES(mu) {
    auto it = in_flight.find(vm);
    if (it == in_flight.end()) return;
    const uint64_t dec = std::min(it->second, n);
    it->second -= dec;
    total_in_flight -= dec;
  }

  /// Queues `msg` on `from`'s worker with in-flight accounting, translating
  /// net-layer status into the transport's pressure signal.
  SendPressure Ship(VmId from, VmId to, const net::Message& msg)
      SEEP_EXCLUDES(mu) {
    {
      sync::MutexLock lock(&mu);
      auto it = in_flight.find(to);
      if (it == in_flight.end()) return SendPressure::kNone;  // dead VM
      ++it->second;
      ++total_in_flight;
    }
    const net::SendStatus st = cluster.Post(from, to, msg);
    if (st == net::SendStatus::kOverflow || st == net::SendStatus::kClosed) {
      sync::MutexLock lock(&mu);
      DecInFlightLocked(to, 1);
      cv.NotifyOne();
    }
    return st == net::SendStatus::kPressured ? SendPressure::kPressured
                                             : SendPressure::kNone;
  }
};

TcpTransport::TcpTransport(Cluster* cluster, TcpTransportConfig config)
    : cluster_(cluster), config_(config), impl_(std::make_unique<Impl>()) {
  SchedulePump();
}

TcpTransport::~TcpTransport() { impl_->cluster.Shutdown(); }

net::LocalCluster* TcpTransport::net_cluster() { return &impl_->cluster; }

uint64_t TcpTransport::disconnects_observed() const {
  return impl_->disconnects.load(std::memory_order_relaxed);
}

uint64_t TcpTransport::messages_delivered() const {
  return impl_->cluster.TotalStats().messages_delivered;
}

uint64_t TcpTransport::frames_dropped() const {
  return impl_->cluster.TotalStats().frames_dropped;
}

void TcpTransport::AttachVm(VmId vm) {
  // Mirror into the sim network so its attachment directory (and any code
  // consulting IsAttached) stays coherent; no sim traffic flows through it.
  cluster_->network()->Attach(vm);
  Impl* impl = impl_.get();
  const Status started = impl->cluster.StartWorker(
      vm,
      /*on_message=*/
      [impl, vm](net::Message msg) {
        sync::MutexLock lock(&impl->mu);
        impl->DecInFlightLocked(vm, 1);
        impl->inbox.push_back(std::move(msg));
        impl->cv.NotifyOne();
      },
      /*on_peer_disconnect=*/
      [impl](VmId) {
        impl->disconnects.fetch_add(1, std::memory_order_relaxed);
      },
      /*on_frames_dropped=*/
      [impl](VmId peer, size_t n) {
        sync::MutexLock lock(&impl->mu);
        impl->DecInFlightLocked(peer, n);
        impl->cv.NotifyOne();
      });
  SEEP_CHECK(started.ok());
  sync::MutexLock lock(&impl->mu);
  impl->in_flight.try_emplace(vm, 0);
}

void TcpTransport::DetachVm(VmId vm) {
  SEEP_ASSERT_RUN_ON(sync::DriverThread);
  cluster_->network()->Detach(vm);
  // Kill first (joins the worker thread), then zero the accounting: frames
  // already handed to this VM's kernel buffers die unobserved, and the
  // pump must not wait for them.
  impl_->cluster.KillWorker(vm);
  {
    sync::MutexLock lock(&impl_->mu);
    impl_->DecInFlightLocked(vm, UINT64_MAX);
    impl_->in_flight.erase(vm);
    impl_->cv.NotifyOne();
  }
  // Pending state shipments to the dead VM will never complete (sim
  // parity: sim::Network drops deliveries to detached endpoints).
  for (auto it = impl_->ships.begin(); it != impl_->ships.end();) {
    it = it->second.to == vm ? impl_->ships.erase(it) : std::next(it);
  }
}

SendPressure TcpTransport::SendBatch(OperatorInstance* from, InstanceId to,
                                     core::TupleBatch batch) {
  batch.from = from->id();
  const OperatorInstance* dest = cluster_->membership()->GetInstance(to);
  if (dest == nullptr) return SendPressure::kNone;

  net::Message msg;
  msg.type = net::MessageType::kBatch;
  msg.from_vm = from->vm();
  msg.to_vm = dest->vm();
  serde::Encoder enc;
  enc.AppendVarint64(to);  // destination instance, then the batch itself
  batch.Encode(&enc);
  msg.body = std::move(enc).TakeBuffer();
  return impl_->Ship(from->vm(), dest->vm(), msg);
}

void TcpTransport::SendCheckpoint(const CheckpointRoute& route,
                                  core::StateCheckpoint ckpt) {
  net::Message msg;
  msg.type = net::MessageType::kCheckpoint;
  msg.from_vm = route.owner_vm;
  msg.to_vm = route.holder_vm;
  serde::Encoder enc;
  enc.AppendVarint64(route.owner);
  enc.AppendVarint64(route.holder);
  const size_t header_bytes = enc.size();
  ckpt.Encode(&enc);  // Encode reserves EncodedSize() exactly
  msg.body = std::move(enc).TakeBuffer();
  MetricsRegistry* metrics = cluster_->metrics();
  metrics->ckpt_raw_bytes += msg.body.size() - header_bytes;
  metrics->ckpt_wire_bytes += msg.body.size();
  // Pacing: the pump's bounded wait drains in-flight counts, so the backup
  // path needs no pressure feedback.
  // seep-ok: unchecked-status -- paced by in-flight accounting
  (void)impl_->Ship(route.owner_vm, route.holder_vm, msg);
}

void TcpTransport::ShipState(VmId from, VmId to, uint64_t size_bytes,
                             std::function<void()> on_delivery) {
  SEEP_ASSERT_RUN_ON(sync::DriverThread);
  const uint64_t id = ++impl_->next_ship_id;
  net::Message msg;
  msg.type = net::MessageType::kStateShip;
  msg.from_vm = from;
  msg.to_vm = to;
  msg.ship_id = id;
  serde::Encoder enc;
  enc.AppendVarint64(size_bytes);
  // Real bytes on the wire so bulk shipping exercises the stream path, but
  // capped: the logical size alone decides the protocol's behaviour.
  const size_t filler =
      static_cast<size_t>(std::min(size_bytes, kShipPayloadCap));
  enc.Reserve(filler);
  for (size_t i = 0; i < filler; ++i) enc.AppendU8(0xA5);
  msg.body = std::move(enc).TakeBuffer();

  impl_->ships[id] = Impl::ShipEntry{to, std::move(on_delivery)};
  bool dead = false;
  {
    sync::MutexLock lock(&impl_->mu);
    auto it = impl_->in_flight.find(to);
    if (it == impl_->in_flight.end()) {
      dead = true;  // dead destination: delivery never happens
    } else {
      ++it->second;
      ++impl_->total_in_flight;
    }
  }
  if (dead) {
    impl_->ships.erase(id);
    return;
  }
  const net::SendStatus st = impl_->cluster.Post(from, to, msg);
  if (st == net::SendStatus::kOverflow || st == net::SendStatus::kClosed) {
    {
      sync::MutexLock lock(&impl_->mu);
      impl_->DecInFlightLocked(to, 1);
    }
    impl_->ships.erase(id);
  }
}

void TcpTransport::SchedulePump() {
  cluster_->simulation()->Schedule(kPumpInterval, [this]() { Pump(); });
}

void TcpTransport::NoteWireDecodeFailure(const char* what,
                                         const Status& status) {
  ++cluster_->metrics()->wire_decode_failures;
  SEEP_LOG(kWarn, 0) << "dropping wire message: " << what
                     << " failed to decode: " << status.message();
}

void TcpTransport::Pump() {
  SEEP_ASSERT_RUN_ON(sync::DriverThread);
  std::deque<net::Message> drained;
  {
    sync::MutexLock lock(&impl_->mu);
    // Bound the sim-time skew between send and delivery: while messages are
    // in flight, give them a short wall-clock window to land before sim
    // time advances past this pump. The wait is bounded, so a stalled link
    // (reconnect backoff, dead peer mid-detach) delays the simulation by at
    // most pump_wait_micros per pump instead of wedging it.
    impl_->cv.WaitFor(&impl_->mu,
                      std::chrono::microseconds(config_.pump_wait_micros),
                      [this] {
                        impl_->mu.AssertHeld();
                        return impl_->total_in_flight == 0 ||
                               !impl_->inbox.empty();
                      });
    drained.swap(impl_->inbox);
  }
  for (net::Message& msg : drained) {
    switch (msg.type) {
      case net::MessageType::kBatch: {
        serde::Decoder dec(msg.body);
        auto to = dec.ReadVarint64();
        if (!to.ok()) {
          NoteWireDecodeFailure("batch target", to.status());
          break;
        }
        auto batch = core::TupleBatch::Decode(&dec);
        if (!batch.ok()) {
          NoteWireDecodeFailure("tuple batch", batch.status());
          break;
        }
        OperatorInstance* target = cluster_->membership()->GetInstance(
            static_cast<InstanceId>(to.value()));
        if (target != nullptr) target->OnBatch(std::move(batch).value());
        break;
      }
      case net::MessageType::kCheckpoint: {
        // A body that fails to decode is dropped: the owner's next
        // checkpoint supersedes it, exactly like a message lost to a link
        // failure.
        auto decoded = DecodeCheckpointBody(msg.body);
        if (!decoded.ok()) {
          ++cluster_->metrics()->ckpt_decode_failures;
          SEEP_LOG(kWarn, 0) << "dropping checkpoint message: "
                             << decoded.status().message();
          break;
        }
        CheckpointBody& body = decoded.value();
        DeliverCheckpointToHolder(cluster_, body.owner, body.holder,
                                  std::move(body.ckpt));
        break;
      }
      case net::MessageType::kStateShip: {
        auto it = impl_->ships.find(msg.ship_id);
        if (it == impl_->ships.end()) break;  // cancelled by DetachVm
        std::function<void()> cb = std::move(it->second.on_delivery);
        impl_->ships.erase(it);
        if (cb) cb();
        break;
      }
      case net::MessageType::kHello:
      case net::MessageType::kControl:
        break;  // hellos stay inside net/; no control users yet
    }
  }
  SchedulePump();
}

}  // namespace seep::runtime
