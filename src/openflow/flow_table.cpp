#include "openflow/flow_table.hpp"

#include <algorithm>

namespace harmless::openflow {

FlowTable::FlowTable(std::uint8_t table_id, bool specialized_matcher)
    : id_(table_id), matcher_(make_matcher(specialized_matcher)) {}

void FlowTable::rebuild_if_needed() {
  if (!dirty_) return;
  std::vector<FlowEntry*> raw;
  raw.reserve(entries_.size());
  for (const auto& entry : entries_) raw.push_back(entry.get());
  matcher_->rebuild(raw);
  dirty_ = false;
}

util::Status FlowTable::add(FlowEntry entry, sim::SimNanos now, bool check_overlap) {
  if (check_overlap) {
    for (const auto& existing : entries_) {
      if (existing->priority == entry.priority && existing->match.overlaps(entry.match) &&
          !(existing->match == entry.match))
        return util::Status::error("overlapping entry at priority " +
                                   std::to_string(entry.priority));
    }
  }
  entry.installed_at = now;
  entry.last_hit = 0;

  // Identical (match, priority) replaces in place, counters reset
  // (OF1.3 §6.4 without OFPFF_RESET_COUNTS subtleties).
  for (auto& existing : entries_) {
    if (existing->priority == entry.priority && existing->match == entry.match) {
      *existing = std::move(entry);
      mark_dirty();
      return util::Status::ok();
    }
  }
  entries_.push_back(std::make_unique<FlowEntry>(std::move(entry)));
  mark_dirty();
  return util::Status::ok();
}

std::size_t FlowTable::modify(const Match& match, const Instructions& instructions, bool strict,
                              std::uint16_t priority) {
  std::size_t updated = 0;
  for (auto& entry : entries_) {
    const bool hit = strict ? (entry->match == match && entry->priority == priority)
                            : match.subsumes(entry->match);
    if (hit) {
      entry->instructions = instructions;
      ++updated;
    }
  }
  // Instructions don't affect match structures; no rebuild needed. The
  // flow cache replays instruction-derived action programs though, so
  // cached entries must still be invalidated.
  if (updated > 0) bump_epoch();
  return updated;
}

std::vector<FlowEntry> FlowTable::remove(const Match& match, bool strict,
                                         std::uint16_t priority) {
  std::vector<FlowEntry> removed;
  auto it = entries_.begin();
  while (it != entries_.end()) {
    const bool hit = strict ? ((*it)->match == match && (*it)->priority == priority)
                            : match.subsumes((*it)->match);
    if (hit) {
      removed.push_back(std::move(**it));
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  if (!removed.empty()) mark_dirty();
  return removed;
}

std::vector<FlowEntry> FlowTable::remove_by_cookie(std::uint64_t cookie) {
  std::vector<FlowEntry> removed;
  auto it = entries_.begin();
  while (it != entries_.end()) {
    if ((*it)->cookie == cookie) {
      removed.push_back(std::move(**it));
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  if (!removed.empty()) mark_dirty();
  return removed;
}

FlowEntry* FlowTable::lookup(const FieldView& view, std::size_t packet_bytes, sim::SimNanos now,
                             LookupCost& cost) {
  rebuild_if_needed();
  FlowEntry* entry = matcher_->lookup(view, cost);
  if (entry != nullptr && entry->expired(now)) {
    // Lazy expiry: drop it now and retry (the sweep also runs
    // periodically; this just keeps single lookups correct).
    const Match match = entry->match;
    const std::uint16_t priority = entry->priority;
    remove(match, /*strict=*/true, priority);
    rebuild_if_needed();
    entry = matcher_->lookup(view, cost);
    if (entry != nullptr && entry->expired(now)) entry = nullptr;
  }
  record_lookup(entry, packet_bytes, now);
  return entry;
}

void FlowTable::record_lookup(FlowEntry* entry, std::size_t packet_bytes, sim::SimNanos now) {
  ++counters_.lookups;
  if (entry == nullptr) return;
  ++counters_.matches;
  ++entry->packet_count;
  entry->byte_count += packet_bytes;
  entry->last_hit = now;
}

std::vector<FlowEntry> FlowTable::collect_expired(sim::SimNanos now) {
  std::vector<FlowEntry> expired;
  auto it = entries_.begin();
  while (it != entries_.end()) {
    if ((*it)->expired(now)) {
      expired.push_back(std::move(**it));
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  if (!expired.empty()) mark_dirty();
  return expired;
}

std::vector<const FlowEntry*> FlowTable::entries() const {
  std::vector<const FlowEntry*> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.get());
  std::stable_sort(out.begin(), out.end(), [](const FlowEntry* a, const FlowEntry* b) {
    return a->priority > b->priority;
  });
  return out;
}

}  // namespace harmless::openflow
