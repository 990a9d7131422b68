#include "cache/set_assoc_cache.hpp"

#include <algorithm>
#include <cassert>

namespace morpheus {

SetAssocCache::SetAssocCache(std::uint32_t sets, std::uint32_t ways, ReplacementKind repl,
                             bool hashed_index)
    : sets_(sets), ways_(ways), hashed_index_(hashed_index),
      pow2_sets_((sets & (sets - 1)) == 0), tags_(static_cast<std::size_t>(sets) * ways),
      versions_(tags_.size()), dirty_(tags_.size())
{
    repl_.reserve(sets);
    for (std::uint32_t s = 0; s < sets; ++s)
        repl_.emplace_back(ways, repl);
}

std::uint32_t
SetAssocCache::set_index(LineAddr line) const
{
    const std::uint64_t key = hashed_index_ ? mix64(line) : line;
    return static_cast<std::uint32_t>(pow2_sets_ ? key & (sets_ - 1) : key % sets_);
}

int
SetAssocCache::find_way(std::uint32_t set, LineAddr line) const
{
    // Invalid ways lack kValidBit, so they never match.
    const std::uint64_t tag = line | kValidBit;
    const std::uint64_t *t = tags_.data() + base_of(set);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (t[w] == tag)
            return static_cast<int>(w);
    }
    return -1;
}

bool
SetAssocCache::probe(LineAddr line) const
{
    return find_way(set_index(line), line) >= 0;
}

SetAssocCache::LookupResult
SetAssocCache::read(LineAddr line)
{
    const std::uint32_t set = set_index(line);
    const int way = find_way(set, line);
    if (way < 0) {
        ++misses_;
        return {};
    }
    ++hits_;
    repl_[set].touch(static_cast<std::uint32_t>(way));
    return {true, versions_[base_of(set) + static_cast<std::uint32_t>(way)]};
}

SetAssocCache::LookupResult
SetAssocCache::write(LineAddr line, std::uint64_t version)
{
    const std::uint32_t set = set_index(line);
    const int way = find_way(set, line);
    if (way < 0) {
        ++misses_;
        return {};
    }
    ++hits_;
    const std::size_t i = base_of(set) + static_cast<std::uint32_t>(way);
    dirty_[i] = 1;
    versions_[i] = version;
    repl_[set].touch(static_cast<std::uint32_t>(way));
    return {true, version};
}

std::optional<SetAssocCache::Eviction>
SetAssocCache::fill(LineAddr line, std::uint64_t version, bool dirty)
{
    assert((line & kValidBit) == 0);
    const std::uint32_t set = set_index(line);
    const std::size_t base = base_of(set);
    ++fills_;

    // Refill of a line that raced back in (e.g. two MSHR-merged paths):
    // just refresh it.
    if (int way = find_way(set, line); way >= 0) {
        const std::size_t i = base + static_cast<std::uint32_t>(way);
        versions_[i] = std::max(versions_[i], version);
        dirty_[i] = dirty_[i] || dirty;
        repl_[set].touch(static_cast<std::uint32_t>(way));
        return std::nullopt;
    }

    // Prefer an invalid way.
    int target = -1;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (!(tags_[base + w] & kValidBit)) {
            target = static_cast<int>(w);
            break;
        }
    }

    std::optional<Eviction> evicted;
    if (target < 0) {
        target = static_cast<int>(repl_[set].victim());
        const std::size_t v = base + static_cast<std::uint32_t>(target);
        evicted = Eviction{tags_[v] & ~kValidBit, dirty_[v] != 0, versions_[v]};
        ++evictions_;
        if (dirty_[v])
            ++writebacks_;
    }

    const std::size_t i = base + static_cast<std::uint32_t>(target);
    tags_[i] = line | kValidBit;
    dirty_[i] = dirty;
    versions_[i] = version;
    repl_[set].insert(static_cast<std::uint32_t>(target));
    return evicted;
}

std::optional<SetAssocCache::Eviction>
SetAssocCache::invalidate(LineAddr line)
{
    const std::uint32_t set = set_index(line);
    const int way = find_way(set, line);
    if (way < 0)
        return std::nullopt;
    const std::size_t i = base_of(set) + static_cast<std::uint32_t>(way);
    Eviction ev{line, dirty_[i] != 0, versions_[i]};
    tags_[i] = line;
    dirty_[i] = 0;
    return ev;
}

} // namespace morpheus
