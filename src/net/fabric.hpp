// openSAGE -- the emulated fabric: N mailboxes, tag-matched delivery,
// virtual-time stamps on every message.
//
// Each emulated node owns one mailbox. send() copies the payload (the
// emulated nodes have private memories; nothing is shared by reference
// across node boundaries) and stamps it with the sender's virtual time
// plus the send overhead. recv() blocks on the mailbox until a matching
// message arrives and returns the timestamp at which the message is
// available at the receiver under the fabric cost model.
//
// Fault injection: when a FaultPlan is attached, every non-exempt send
// consults it. Faulted parcels are still delivered -- marked with their
// FaultKind so the receiver can detect, count, and recover -- because a
// silently vanishing message would turn injected loss into a wall-clock
// hang instead of a testable behaviour. send_reliable() layers the
// emulated ARQ on top: it retransmits dropped/corrupted attempts with
// exponential virtual-time backoff until delivery or the plan's attempt
// bound, computing the whole exchange analytically so sends stay eager
// (no new deadlock modes) and every counter is deterministic. A reliable
// parcel carries its body checksum out of band (Parcel::checksum) and is
// modeled as framed: it costs body + kFrameHeaderBytes on the wire.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "net/buffer_pool.hpp"
#include "net/fabric_model.hpp"
#include "net/fault.hpp"
#include "net/transport.hpp"
#include "support/clock.hpp"

namespace sage::net {

/// Matches any source rank / any tag in recv().
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// A delivered message. The payload is a ref-counted handle over a
/// pooled buffer (the emulated nodes still have private memories -- the
/// bytes were copied exactly once, into the pool, on the send side);
/// releasing the Message returns the buffer to the fabric's pool.
struct Message {
  int src = 0;
  int tag = 0;
  Payload payload;
  /// Virtual time at which the payload is fully available at the receiver.
  support::VirtualSeconds arrival_vt = 0.0;
  /// Injected fault carried by this delivery (kNone on clean paths).
  /// kDrop deliveries have an empty payload: they are tombstones whose
  /// arrival_vt models the receiver's loss-detection timeout.
  FaultKind fault = FaultKind::kNone;
  /// Retransmit attempt index this delivery belongs to (0 = first try).
  int attempt = 0;
  /// The sender's body checksum (reliable sends; 0 otherwise).
  std::uint64_t checksum = 0;
};

/// Delivery options for modeling differently-tuned transfer paths.
struct SendOptions {
  /// True for the vendor bulk path (DMA-aggregated, reduced overhead).
  bool vendor_bulk = false;
  /// True to bypass the attached FaultPlan (control-plane traffic that
  /// the fault model should not touch).
  bool fault_exempt = false;
};

/// Aggregate injected-fault counters (diagnostics / RunStats).
struct FaultCounters {
  std::uint64_t drops = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t delays = 0;
  std::uint64_t retransmits = 0;

  bool operator==(const FaultCounters&) const = default;
};

/// Per-directed-link traffic totals (diagnostics / metrics export).
struct LinkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  /// Retransmit attempts issued on this link by send_reliable().
  std::uint64_t retransmits = 0;
  /// Virtual seconds the board-pair channel spent serializing this
  /// link's payloads (contention model only; 0 for same-board traffic
  /// or when contention modeling is off). Purely model-derived
  /// (bytes / bandwidth), so it is deterministic.
  double busy_vt = 0.0;

  bool operator==(const LinkStats&) const = default;
};

/// What send_reliable() settled on for one transfer.
struct SendReceipt {
  /// Sender's virtual time after the last attempt (backoff included).
  support::VirtualSeconds sender_after = 0.0;
  /// Attempts issued, first try included (1 on the clean path).
  int attempts = 1;
};

class Fabric {
 public:
  /// `transport` picks the mechanism that moves accepted messages to
  /// their mailboxes (see net/transport.hpp); the default is the
  /// historical zero-copy in-process path. The cost model, fault
  /// injection, and every deterministic counter are transport-blind:
  /// the fabric resolves them *before* the transport sees the parcel.
  Fabric(int node_count, FabricModel model, TransportOptions transport = {});

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int node_count() const { return node_count_; }
  const FabricModel& model() const { return model_; }

  /// The mechanism backend this fabric was built with.
  TransportKind transport_kind() const { return transport_->kind(); }
  /// Backend handle (test hooks: node_pid for kill -9 drills).
  Transport& transport() { return *transport_; }
  const Transport& transport() const { return *transport_; }

  /// Attaches (or clears, with nullptr) the fault plan consulted by
  /// every non-exempt send. Must not race with in-flight traffic --
  /// callers attach between runs, while the node threads are parked.
  void set_fault_plan(std::shared_ptr<const FaultPlan> plan);
  const FaultPlan* fault_plan() const { return plan_.get(); }

  /// Copies `bytes` into a message for `dst`. `now_vt` is the sender's
  /// virtual time when the send is issued. Returns the sender's virtual
  /// time after the send call (send-side overhead added). With an
  /// active fault plan the single attempt may be delivered faulted
  /// (marked on Message::fault); use send_reliable() for retransmits.
  support::VirtualSeconds send(int src, int dst, int tag,
                               std::span<const std::byte> bytes,
                               support::VirtualSeconds now_vt,
                               SendOptions options = {});

  /// Zero-copy variant: enqueues the pooled payload by handle instead
  /// of copying it. Fan-out senders pass the same Payload to several
  /// destinations and all deliveries share one block; a corrupted
  /// attempt clones the block first (copy-on-write), so sharers never
  /// observe the flipped bytes.
  support::VirtualSeconds send(int src, int dst, int tag, Payload payload,
                               support::VirtualSeconds now_vt,
                               SendOptions options = {});

  /// Fault-tolerant send: resolves the whole retransmit exchange
  /// analytically at send time. Every attempt the plan faults with
  /// kDrop/kCorrupt is enqueued as a marked delivery (so the receiver
  /// observes and counts it) followed by a clean retransmit, with the
  /// plan's detection timeout and exponential backoff charged to the
  /// sender's virtual time. Every attempt carries `checksum` (the
  /// caller's checksum64 of the body) and costs body + kFrameHeaderBytes
  /// of wire bytes. Throws sage::CommError once FaultPlan::max_attempts
  /// is exhausted. Without an active plan this is exactly send().
  SendReceipt send_reliable(int src, int dst, int tag, Payload payload,
                            std::uint64_t checksum,
                            support::VirtualSeconds now_vt,
                            SendOptions options = {});

  /// Blocks until a message matching (src, tag) is available for `dst`
  /// (kAnySource / kAnyTag act as wildcards). Throws sage::CommError if
  /// `timeout_wall_s` of host wall time elapses first, which turns
  /// emulated-network deadlocks into test failures instead of hangs,
  /// or when it would wait on an aborted fabric.
  Message recv(int dst, int src = kAnySource, int tag = kAnyTag,
               double timeout_wall_s = 60.0);

  /// Until reset(), every recv() that finds no matching message queued
  /// -- blocked now or later -- throws sage::CommError instead of
  /// waiting. The executor calls it on the first node failure of an
  /// epoch, so peers waiting for messages the failed node will never
  /// send surface at once instead of after their receive timeout.
  void abort();

  /// Number of messages currently queued for `dst` (diagnostics).
  std::size_t pending(int dst) const;

  /// Total messages and bytes ever accepted (diagnostics / benches).
  /// Faulted attempts count too: they crossed the emulated wire.
  std::uint64_t total_messages() const;
  std::uint64_t total_bytes() const;

  /// Injected-fault totals since construction or the last reset().
  FaultCounters fault_counters() const;

  /// Per-directed-link totals since construction or the last reset(),
  /// keyed (src, dst). Only links that carried traffic appear.
  std::map<std::pair<int, int>, LinkStats> link_stats() const;

  /// The payload pool backing every message on this fabric. Callers
  /// acquire() here to fill a buffer once and send it by handle; the
  /// pool (and its counters) survives reset() -- recycling across runs
  /// is the warm-path win.
  BufferPool& pool() { return pool_; }
  const BufferPool& pool() const { return pool_; }

  /// Returns the fabric to its just-constructed state: flushes the
  /// transport (an async backend may still hold accepted messages in
  /// flight -- they must land or be abandoned *now*, not leak into the
  /// next run), drains every mailbox (e.g. unclaimed flow-control
  /// credits from a finished run), zeroes the message/byte totals, and
  /// clears the per-link contention history. Must not race with
  /// in-flight send/recv -- callers reset between runs, while the node
  /// threads are parked.
  void reset();

 private:
  struct Mailbox {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<Parcel> queue;
  };

  bool match_(const Parcel& p, int src, int tag) const {
    return (src == kAnySource || p.src == src) &&
           (tag == kAnyTag || p.tag == tag);
  }

  /// Next fault-eligible message index on (src, dst); feeds the plan's
  /// counter-mode draws.
  std::uint64_t next_link_seq_(int src, int dst);

  /// Resolves the fault outcome into the payload actually delivered:
  /// an empty tombstone for drops, a cloned-and-flipped block for
  /// corruption, the shared handle otherwise.
  Payload deliverable_(Payload payload, const FaultOutcome& outcome);

  /// Shared path of one send attempt: draws the plan's verdict (none
  /// for exempt sends or without an active plan), resolves it into the
  /// payload actually delivered, applies the fabric cost model, and
  /// delivers the parcel. `wire_bytes` is the logical transfer size
  /// (drops deliver an empty tombstone but the original bytes crossed
  /// the emulated wire and are costed/counted); drops arrive after the
  /// plan's detection timeout, delays after their latency spike.
  /// Advances `t`, the sender's virtual time, past the send and returns
  /// the verdict.
  FaultKind enqueue_(int src, int dst, int tag, Payload payload,
                     std::uint64_t checksum, int attempt,
                     std::size_t wire_bytes, support::VirtualSeconds& t,
                     const SendOptions& options);

  /// Removes the matched parcel from `box` as a Message (box.mu held).
  static Message take_(Mailbox& box, std::deque<Parcel>::iterator it);

  std::size_t link_index_(int src, int dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(node_count_) +
           static_cast<std::size_t>(dst);
  }

  int node_count_;
  FabricModel model_;
  // Declared before the mailboxes: payload handles queued in a mailbox
  // release into the pool, so the pool must outlive them (members are
  // destroyed in reverse declaration order).
  BufferPool pool_;
  std::vector<Mailbox> boxes_;
  std::atomic<bool> aborted_{false};
  std::shared_ptr<const FaultPlan> plan_;
  mutable std::mutex stats_mu_;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
  FaultCounters fault_counters_;
  // Flat src*n+dst tables (guarded by stats_mu_): dense indexing keeps
  // the per-send stats update allocation-free and cache-friendly.
  // Per-link fault-eligible message counters.
  std::vector<std::uint64_t> link_seq_;
  // Per-directed-link traffic totals.
  std::vector<LinkStats> link_stats_;
  // Contention model: per board-pair channel (minmax key), the virtual
  // time at which the link becomes free.
  std::vector<double> link_free_;
  // Declared last: the transport's receive threads push into boxes_
  // and allocate from pool_, so it must be destroyed (threads joined,
  // node processes reaped) before either of them.
  std::unique_ptr<Transport> transport_;
};

}  // namespace sage::net
