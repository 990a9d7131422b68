#ifndef MORPHEUS_CACHE_MSHR_HPP_
#define MORPHEUS_CACHE_MSHR_HPP_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace morpheus {

/**
 * A table of Miss Status Holding Registers.
 *
 * Tracks outstanding line fetches so that concurrent misses to the same
 * line are merged onto one memory request. Each entry carries a FIFO list
 * of waiter callbacks invoked with the filled data version when the line
 * returns.
 *
 * Every L1 and LLC miss passes through here, so the steady state is
 * allocation-free. Entries live in an open-addressed table keyed by
 * mix64(line): power-of-two capacity, linear probing, and backward-shift
 * deletion, so no tombstones build up. Waiters are threaded through a
 * per-table slab of nodes recycled via a free list. The slab grows in
 * fixed chunks, so a node never moves: a waiter may allocate on this
 * table while release() is invoking it. Nothing is allocated before the
 * first miss, and the entry table doubles lazily from a small first
 * allocation (construction cost is paid by every simulated system).
 */
class MshrTable
{
  public:
    /** Callback invoked when the missed line's data arrives. */
    using Waiter = std::function<void(Cycle when, std::uint64_t version)>;

  private:
    struct Node
    {
        Waiter fn;
        Node *next = nullptr;
    };

  public:
    /**
     * The waiters of one completed fetch, in arrival order. Holds their
     * slab nodes until it is destroyed, then returns them to the table's
     * free list; it must not outlive the table.
     */
    class Released
    {
      public:
        class iterator
        {
          public:
            Waiter &operator*() const { return node_->fn; }
            iterator &
            operator++()
            {
                node_ = node_->next;
                return *this;
            }
            bool operator==(const iterator &o) const { return node_ == o.node_; }

          private:
            friend class Released;
            explicit iterator(Node *node) : node_(node) {}
            Node *node_;
        };

        Released(const Released &) = delete;
        Released &operator=(const Released &) = delete;
        ~Released() { table_->recycle(head_, tail_); }

        iterator begin() const { return iterator(head_); }
        iterator end() const { return iterator(nullptr); }
        bool empty() const { return head_ == nullptr; }
        std::size_t size() const { return chain_length(head_); }

      private:
        friend class MshrTable;
        Released(MshrTable *table, Node *head, Node *tail)
            : table_(table), head_(head), tail_(tail)
        {
        }

        MshrTable *table_;
        Node *head_;
        Node *tail_;
    };

    /**
     * @param max_entries maximum distinct outstanding lines; 0 means
     *        unbounded (used at the LLC where the paper does not model a
     *        specific limit).
     */
    explicit MshrTable(std::size_t max_entries = 0) : max_entries_(max_entries) {}

    /** True when a new (primary) miss cannot currently be accepted. */
    bool
    full() const
    {
        return max_entries_ != 0 && size_ >= max_entries_;
    }

    /** True when @p line already has an outstanding fetch. */
    bool
    has(LineAddr line) const
    {
        return !slots_.empty() && slots_[probe(line)].head != nullptr;
    }

    /**
     * Registers a miss on @p line.
     * @return true when this is the primary miss (caller must issue the
     *         fetch); false when merged onto an existing entry.
     * @pre !full() unless has(line).
     */
    bool
    allocate_or_merge(LineAddr line, Waiter waiter)
    {
        Node *node = take_node(std::move(waiter));
        std::size_t i = slots_.empty() ? 0 : probe(line);
        if (!slots_.empty() && slots_[i].head) {
            slots_[i].tail->next = node;
            slots_[i].tail = node;
            ++merged_;
            return false;
        }
        if (2 * (size_ + 1) > slots_.size()) {
            grow();
            i = probe(line);
        }
        slots_[i] = Slot{line, node, node};
        ++size_;
        ++allocated_;
        peak_ = std::max(peak_, size_);
        return true;
    }

    /**
     * Completes the fetch of @p line: removes the entry and returns its
     * waiters in arrival order (the caller invokes them after installing
     * the fill). An unknown line yields an empty range.
     */
    Released
    release(LineAddr line)
    {
        if (slots_.empty())
            return Released(this, nullptr, nullptr);
        const std::size_t i = probe(line);
        Node *head = slots_[i].head;
        Node *tail = slots_[i].tail;
        if (head)
            erase_at(i);
        return Released(this, head, tail);
    }

    std::size_t outstanding() const { return size_; }

    /** @name Statistics */
    ///@{
    std::uint64_t allocated() const { return allocated_; }
    std::uint64_t merged() const { return merged_; }
    std::size_t peak_occupancy() const { return peak_; }
    ///@}

    /**
     * Checkpoint state. Waiter closures are opaque, so the entry table is
     * digest-only coverage: the writer records outstanding lines (sorted)
     * and waiter counts; the reader discards them, leaving the fresh
     * table empty. Direct restore therefore requires a drained table
     * (final checkpoints); mid-run restore goes through replay, which
     * rebuilds entries naturally. Counters restore for real.
     */
    template <class A>
    void
    state(A &ar)
    {
        if constexpr (A::kIsWriter) {
            std::vector<std::pair<LineAddr, std::size_t>> entries;
            entries.reserve(size_);
            for (const Slot &s : slots_) {
                if (s.head)
                    entries.emplace_back(s.line, chain_length(s.head));
            }
            std::sort(entries.begin(), entries.end());
            ar.shadow(size_);
            for (const auto &[line, waiters] : entries) {
                ar.shadow(line);
                ar.shadow(waiters);
            }
        } else {
            std::uint64_t n = 0;
            ar.field(n);
            for (std::uint64_t i = 0; i < n; ++i) {
                ar.shadow(0);
                ar.shadow(0);
            }
        }
        ar.field(allocated_);
        ar.field(merged_);
        std::uint64_t peak = peak_;
        ar.field(peak);
        peak_ = static_cast<std::size_t>(peak);
    }

  private:
    /** One entry; a slot is empty exactly when head is null. */
    struct Slot
    {
        LineAddr line = 0;
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    static constexpr std::size_t kFirstSlots = 16;
    static constexpr std::size_t kChunkNodes = 32;

    static std::size_t
    chain_length(const Node *n)
    {
        std::size_t len = 0;
        for (; n; n = n->next)
            ++len;
        return len;
    }

    /** Index of @p line's slot, or of the empty slot that ends its probe
     *  run. @pre !slots_.empty() (the load factor keeps one slot free). */
    std::size_t
    probe(LineAddr line) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(line)) & mask;
        while (slots_[i].head && slots_[i].line != line)
            i = (i + 1) & mask;
        return i;
    }

    /** Doubles the slot array (keeping the load factor at most 1/2). */
    void
    grow()
    {
        const std::vector<Slot> old = std::move(slots_);
        slots_.assign(std::max(kFirstSlots, 2 * old.size()), Slot{});
        for (const Slot &s : old) {
            if (s.head)
                slots_[probe(s.line)] = s;
        }
    }

    /** Empties slot @p i, shifting later members of its probe run back
     *  into the hole so every remaining line stays reachable. */
    void
    erase_at(std::size_t i)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t hole = i;
        for (std::size_t j = (i + 1) & mask; slots_[j].head; j = (j + 1) & mask) {
            const std::size_t home = static_cast<std::size_t>(mix64(slots_[j].line)) & mask;
            // Slot j may move into the hole only when the hole lies on
            // its probe path, i.e. between its home slot and j.
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        --size_;
    }

    Node *
    take_node(Waiter &&fn)
    {
        if (!free_) {
            auto chunk = std::make_unique<Node[]>(kChunkNodes);
            for (std::size_t k = 0; k + 1 < kChunkNodes; ++k)
                chunk[k].next = &chunk[k + 1];
            free_ = chunk.get();
            chunks_.push_back(std::move(chunk));
        }
        Node *n = free_;
        free_ = n->next;
        n->fn = std::move(fn);
        n->next = nullptr;
        return n;
    }

    /** Destroys the callables of the chain head..tail and frees its nodes. */
    void
    recycle(Node *head, Node *tail)
    {
        if (!head)
            return;
        for (Node *n = head; n; n = n->next)
            n->fn = nullptr;
        tail->next = free_;
        free_ = head;
    }

    std::size_t max_entries_;
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::vector<std::unique_ptr<Node[]>> chunks_;
    Node *free_ = nullptr;
    std::uint64_t allocated_ = 0;
    std::uint64_t merged_ = 0;
    std::size_t peak_ = 0;
};

} // namespace morpheus

#endif // MORPHEUS_CACHE_MSHR_HPP_
