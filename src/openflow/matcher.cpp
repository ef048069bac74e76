#include "openflow/matcher.hpp"

#include <algorithm>

namespace harmless::openflow {

namespace {

bool priority_desc(const FlowEntry* a, const FlowEntry* b) {
  return a->priority > b->priority;
}

}  // namespace

// ---------------------------------------------------------------- linear

void LinearMatcher::rebuild(std::span<FlowEntry* const> entries) {
  by_priority_.assign(entries.begin(), entries.end());
  std::stable_sort(by_priority_.begin(), by_priority_.end(), priority_desc);
}

FlowEntry* LinearMatcher::lookup(const FieldView& view, LookupCost& cost) const {
  for (FlowEntry* entry : by_priority_) {
    ++cost.entries_scanned;
    if (entry->match.matches(view)) return entry;
  }
  return nullptr;
}

// ----------------------------------------------------------- specialized

namespace {

/// Fold `match`'s (pre-masked) values of the fields in `fields` into
/// the key a packet's masked values hash to.
std::uint64_t match_key(const Match& match, std::uint32_t fields) {
  std::uint64_t h = kFieldHashSeed;
  while (fields != 0) {
    const unsigned index = static_cast<unsigned>(__builtin_ctz(fields));
    fields &= fields - 1;
    h = hash_u64s(h, match.value_of(static_cast<Field>(index)));
  }
  return h;
}

bool same_values(const Match& a, const Match& b, std::uint32_t fields) {
  while (fields != 0) {
    const auto field = static_cast<Field>(__builtin_ctz(fields));
    fields &= fields - 1;
    if (a.value_of(field) != b.value_of(field)) return false;
  }
  return true;
}

/// True if `view`'s values under `masks` equal `match`'s on `fields`
/// (all of which the caller has seen present in the view).
bool view_agrees(const Match& match, const FieldView& view,
                 const std::array<std::uint64_t, kFieldCount>& masks, std::uint32_t fields) {
  while (fields != 0) {
    const unsigned index = static_cast<unsigned>(__builtin_ctz(fields));
    fields &= fields - 1;
    if ((view.values[index] & masks[index]) != match.value_of(static_cast<Field>(index)))
      return false;
  }
  return true;
}

}  // namespace

bool SpecializedMatcher::shape_key(const Shape& shape, const FieldView& view,
                                   std::uint64_t& key) {
  if ((view.present & shape.fields) != shape.fields) {
    // The shape is skipped because the packet lacks some of its fields;
    // pin exactly those absences for megaflow learning.
    std::uint32_t missing = shape.fields & ~view.present;
    while (missing != 0) {
      const unsigned index = static_cast<unsigned>(__builtin_ctz(missing));
      missing &= missing - 1;
      view.note(static_cast<Field>(index), 0);
    }
    return false;
  }
  std::uint64_t h = kFieldHashSeed;
  std::uint32_t remaining = shape.fields;
  while (remaining != 0) {
    const unsigned index = static_cast<unsigned>(__builtin_ctz(remaining));
    remaining &= remaining - 1;
    view.note(static_cast<Field>(index), shape.masks[index]);
    h = hash_u64s(h, view.values[index] & shape.masks[index]);
  }
  key = h;
  return true;
}

void SpecializedMatcher::build_index(const Shape& shape, std::uint32_t prefix, bool distinct,
                                     Index& index) {
  // (key, rank) sorted by key, ranks ascending within a key.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  keyed.reserve(shape.list.size());
  for (std::uint32_t rank = 0; rank < shape.list.size(); ++rank)
    keyed.emplace_back(match_key(shape.list[rank]->match, prefix), rank);
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  for (std::size_t i = 0; i < keyed.size();) {
    Bucket bucket{static_cast<std::uint32_t>(index.slots.size()), 0};
    std::size_t j = i;
    for (; j < keyed.size() && keyed[j].first == keyed[i].first; ++j) {
      FlowEntry* entry = shape.list[keyed[j].second];
      const auto kept = std::span(index.slots).subspan(bucket.begin);
      if (distinct && std::any_of(kept.begin(), kept.end(), [&](const Slot& slot) {
            return same_values(slot.entry->match, entry->match, prefix);
          }))
        continue;  // a higher-priority entry already carries this prefix
      index.slots.push_back(Slot{entry, keyed[j].second});
      ++bucket.count;
    }
    index.buckets.insert_or_assign(keyed[i].first, bucket);
    i = j;
  }
}

void SpecializedMatcher::rebuild(std::span<FlowEntry* const> entries) {
  shapes_.clear();

  for (FlowEntry* entry : entries) {
    const Match& match = entry->match;
    // Find (or create) this entry's shape.
    Shape* shape = nullptr;
    for (Shape& candidate : shapes_) {
      if (candidate.fields != match.fields_present()) continue;
      bool same_masks = true;
      std::uint32_t remaining = candidate.fields;
      while (remaining != 0) {
        const unsigned index = static_cast<unsigned>(__builtin_ctz(remaining));
        remaining &= remaining - 1;
        if (candidate.masks[index] != match.mask_of(static_cast<Field>(index))) {
          same_masks = false;
          break;
        }
      }
      if (same_masks) {
        shape = &candidate;
        break;
      }
    }
    if (shape == nullptr) {
      Shape fresh;
      fresh.fields = match.fields_present();
      for (std::size_t index = 0; index < kFieldCount; ++index)
        if (fresh.fields & (1u << index))
          fresh.masks[index] = match.mask_of(static_cast<Field>(index));
      fresh.exact = match.all_exact() && fresh.fields != 0;
      shapes_.push_back(std::move(fresh));
      shape = &shapes_.back();
    }

    shape->max_priority = std::max(shape->max_priority, entry->priority);
    shape->list.push_back(entry);
  }

  for (Shape& shape : shapes_) {
    std::stable_sort(shape.list.begin(), shape.list.end(), priority_desc);
    if (shape.exact) {
      build_index(shape, shape.fields, /*distinct=*/false, shape.levels.emplace_back());
      continue;
    }
    std::uint32_t prefix = 0;
    std::uint32_t remaining = shape.fields;
    while (remaining != 0) {
      prefix |= 1u << __builtin_ctz(remaining);
      remaining &= remaining - 1;
      build_index(shape, prefix, /*distinct=*/true, shape.levels.emplace_back());
    }
  }
  std::stable_sort(shapes_.begin(), shapes_.end(),
                   [](const Shape& a, const Shape& b) { return a.max_priority > b.max_priority; });
}

FlowEntry* SpecializedMatcher::probe_exact(const Shape& shape, const FieldView& view,
                                           LookupCost& cost) {
  std::uint64_t key = 0;
  if (!shape_key(shape, view, key)) return nullptr;
  ++cost.hash_probes;
  const Index& index = shape.levels.front();
  const Bucket* bucket = index.buckets.find(key);
  if (bucket == nullptr) return nullptr;
  for (const Slot& slot : std::span(index.slots).subspan(bucket->begin, bucket->count)) {
    ++cost.entries_scanned;
    if (slot.entry->match.matches(view)) return slot.entry;  // bucket is priority-sorted
  }
  return nullptr;
}

FlowEntry* SpecializedMatcher::probe_levels(const Shape& shape, const FieldView& view,
                                            LookupCost& cost) {
  const auto miss = [&]() -> FlowEntry* {
    cost.entries_scanned += static_cast<std::uint32_t>(shape.list.size());
    return nullptr;
  };
  Slot hit{shape.list.front(), 0};  // the empty shape (no levels) matches everything
  std::uint64_t h = kFieldHashSeed;
  std::uint32_t prefix = 0;
  std::uint32_t remaining = shape.fields;
  for (const Index& level : shape.levels) {
    const unsigned index = static_cast<unsigned>(__builtin_ctz(remaining));
    remaining &= remaining - 1;
    const auto field = static_cast<Field>(index);
    // Note as Match::matches does for the furthest-reaching entry: a
    // presence probe, then the shape's mask.
    if (!view.has(field)) return miss();
    view.note(field, shape.masks[index]);
    prefix |= field_bit(field);
    h = hash_u64s(h, view.values[index] & shape.masks[index]);
    const Bucket* bucket = level.buckets.find(h);
    if (bucket == nullptr) return miss();
    const auto candidates = std::span(level.slots).subspan(bucket->begin, bucket->count);
    const auto it = std::find_if(candidates.begin(), candidates.end(), [&](const Slot& slot) {
      return view_agrees(slot.entry->match, view, shape.masks, prefix);
    });
    if (it == candidates.end()) return miss();  // a collision, not this prefix
    hit = *it;
  }
  cost.entries_scanned += hit.rank + 1;
  return hit.entry;
}

FlowEntry* SpecializedMatcher::lookup(const FieldView& view, LookupCost& cost) const {
  FlowEntry* best = nullptr;
  for (const Shape& shape : shapes_) {
    // Shapes are ordered by max_priority: once the current best beats
    // everything a shape could contain, we are done.
    if (best != nullptr && best->priority >= shape.max_priority) break;
    FlowEntry* hit =
        shape.exact ? probe_exact(shape, view, cost) : probe_levels(shape, view, cost);
    if (hit != nullptr && (best == nullptr || hit->priority > best->priority)) best = hit;
  }
  return best;
}

std::unique_ptr<Matcher> make_matcher(bool specialized) {
  if (specialized) return std::make_unique<SpecializedMatcher>();
  return std::make_unique<LinearMatcher>();
}

}  // namespace harmless::openflow
