// openflow/flow_table.hpp — one OpenFlow table.
//
// Owns its entries and implements the OF1.3 flow-mod semantics:
//   add             — replaces an entry with identical (match, priority)
//   modify          — rewrites instructions of all entries subsumed by the match
//   modify_strict   — only the exact (match, priority) entry
//   remove / strict — same distinction for deletion
// plus lazy timeout expiry and an optional overlap check on add.
// Lookups delegate to a pluggable Matcher (linear or specialized).
#pragma once

#include <memory>
#include <vector>

#include "openflow/matcher.hpp"
#include "util/status.hpp"

namespace harmless::openflow {

class FlowTable {
 public:
  explicit FlowTable(std::uint8_t table_id = 0, bool specialized_matcher = true);

  [[nodiscard]] std::uint8_t id() const { return id_; }

  /// OFPFC_ADD. If check_overlap and an overlapping same-priority entry
  /// exists, fails without modifying the table.
  util::Status add(FlowEntry entry, sim::SimNanos now, bool check_overlap = false);

  /// OFPFC_MODIFY[_STRICT]: returns number of entries updated.
  std::size_t modify(const Match& match, const Instructions& instructions, bool strict,
                     std::uint16_t priority = 0);

  /// OFPFC_DELETE[_STRICT]: returns the removed entries (for
  /// flow-removed notifications).
  std::vector<FlowEntry> remove(const Match& match, bool strict, std::uint16_t priority = 0);

  /// Remove all entries whose cookie matches (HARMLESS apps tag their
  /// rules with per-app cookies).
  std::vector<FlowEntry> remove_by_cookie(std::uint64_t cookie);

  /// Highest-priority live (non-expired) entry matching `view`.
  /// Updates hit counters and idle timestamps.
  FlowEntry* lookup(const FieldView& view, std::size_t packet_bytes, sim::SimNanos now,
                    LookupCost& cost);

  /// Sweep expired entries out; returns them for notifications.
  std::vector<FlowEntry> collect_expired(sim::SimNanos now);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Stable snapshot for stats replies / dumps (priority-descending).
  [[nodiscard]] std::vector<const FlowEntry*> entries() const;

  /// Cumulative per-table counters.
  struct Counters {
    std::uint64_t lookups = 0;
    std::uint64_t matches = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Wire this table to the pipeline-wide flow-cache epoch: any
  /// mutation (add/remove/expiry, and instruction rewrites via modify)
  /// increments it so cached fast-path entries self-invalidate. See
  /// openflow/flow_cache.hpp.
  void bind_epoch(std::uint64_t* epoch) { epoch_ = epoch; }

  /// The counter and idle-timestamp bookkeeping of one lookup outcome
  /// (`entry` null on a table miss). lookup() ends with this, and the
  /// flow-cache replay calls it directly so cached hits stay
  /// byte-identical to real lookups.
  void record_lookup(FlowEntry* entry, std::size_t packet_bytes, sim::SimNanos now);

 private:
  void mark_dirty() {
    dirty_ = true;
    bump_epoch();
  }
  void bump_epoch() {
    if (epoch_ != nullptr) ++*epoch_;
  }
  void rebuild_if_needed();

  std::uint8_t id_;
  std::vector<std::unique_ptr<FlowEntry>> entries_;
  std::unique_ptr<Matcher> matcher_;
  bool dirty_ = true;
  std::uint64_t* epoch_ = nullptr;  // shared flow-cache epoch (optional)
  Counters counters_;
};

}  // namespace harmless::openflow
