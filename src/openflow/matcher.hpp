// openflow/matcher.hpp — flow-table lookup engines.
//
// Two engines implement the same contract so benches can swap them:
//
//  * LinearMatcher — the textbook approach: walk entries in priority
//    order, first hit wins. O(n) per lookup.
//
//  * SpecializedMatcher — a miniature of ESwitch's dataplane
//    specialization (Molnár et al., SIGCOMM'16 [9], the switch the
//    HARMLESS demo runs) laid out as a tuple-space classifier (Pfaff et
//    al., NSDI'15): entries are partitioned by *shape* (the set of
//    constrained fields + masks), and every shape is hashed on its
//    masked field values. Shapes whose constraints are all exact probe
//    one table keyed on the whole packed key. Wildcarded shapes keep a
//    prefix-hash index: level p maps the masked values of the shape's
//    first p+1 fields (ascending field index, the order Match::matches
//    visits them) to the highest-priority entry with that prefix, so a
//    lookup walks the levels and stops at the first level with no
//    entry — the field where a priority-order scan's furthest-reaching
//    entry mismatched. Lookup visits shapes in descending max-priority
//    order and stops as soon as no later shape can beat the best hit.
//
// Both report a LookupCost so the softswitch can charge simulated
// nanoseconds proportional to the work a scan does. A wildcarded shape
// bills and notes (FieldUse) exactly what a priority-order scan with
// Match::matches would: rank + 1 entries on a hit, the shape's size on
// a miss, and the shape's fields up to the deciding one.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "openflow/flow_entry.hpp"
#include "util/id_map.hpp"

namespace harmless::openflow {

struct LookupCost {
  std::uint32_t entries_scanned = 0;  // entries a priority-order scan compares
  std::uint32_t hash_probes = 0;      // hash-table probes performed
};

class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Rebuild internal structures from `entries` (any order; matchers
  /// sort internally). Pointers must stay valid until the next rebuild.
  virtual void rebuild(std::span<FlowEntry* const> entries) = 0;

  /// Highest-priority matching entry, or nullptr.
  virtual FlowEntry* lookup(const FieldView& view, LookupCost& cost) const = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

class LinearMatcher : public Matcher {
 public:
  void rebuild(std::span<FlowEntry* const> entries) override;
  FlowEntry* lookup(const FieldView& view, LookupCost& cost) const override;
  [[nodiscard]] const char* name() const override { return "linear"; }

 private:
  std::vector<FlowEntry*> by_priority_;
};

class SpecializedMatcher : public Matcher {
 public:
  void rebuild(std::span<FlowEntry* const> entries) override;
  FlowEntry* lookup(const FieldView& view, LookupCost& cost) const override;
  [[nodiscard]] const char* name() const override { return "specialized"; }

  /// Number of compiled shapes (exposed for tests/benches).
  [[nodiscard]] std::size_t shape_count() const { return shapes_.size(); }

 private:
  /// A candidate a hashed probe verifies: an entry and its rank in the
  /// shape's priority-descending order.
  struct Slot {
    FlowEntry* entry = nullptr;
    std::uint32_t rank = 0;
  };
  /// The candidates sharing one hash: slots[begin, begin + count).
  struct Bucket {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };
  /// Hash of masked field values -> the candidates with that hash. A
  /// bucket holds more than one only for duplicate matches (exact
  /// shapes) or hash collisions, so every hit is verified.
  struct Index {
    util::IdMap<std::uint64_t, Bucket> buckets;
    std::vector<Slot> slots;
  };

  struct Shape {
    std::uint32_t fields = 0;  // presence bitmap
    std::array<std::uint64_t, kFieldCount> masks{};
    bool exact = false;              // all masks full-width -> one probe
    std::uint16_t max_priority = 0;  // best entry priority in this shape
    std::vector<FlowEntry*> list;    // priority-desc; rank = position
    // Exact shapes: one index over the full key holding every entry.
    // Wildcarded shapes: levels[p] indexes the first p+1 fields and
    // holds the highest-priority entry per distinct prefix.
    std::vector<Index> levels;
  };

  /// Pack the constrained field values of `view` under `shape` into a
  /// hash key. Returns false if the view lacks one of the fields.
  static bool shape_key(const Shape& shape, const FieldView& view, std::uint64_t& key);
  /// Index `shape.list` on the fields in `prefix`; `distinct` keeps
  /// only the highest-priority entry per distinct prefix value.
  static void build_index(const Shape& shape, std::uint32_t prefix, bool distinct, Index& index);
  static FlowEntry* probe_exact(const Shape& shape, const FieldView& view, LookupCost& cost);
  static FlowEntry* probe_levels(const Shape& shape, const FieldView& view, LookupCost& cost);

  std::vector<Shape> shapes_;  // sorted by max_priority descending
};

std::unique_ptr<Matcher> make_matcher(bool specialized);

}  // namespace harmless::openflow
