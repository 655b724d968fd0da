/**
 * @file
 * Input arenas, pinned slices and the output buffer pool.
 */
#include "arena.hpp"

namespace udp::runtime {

namespace {

std::atomic<std::uint64_t> g_arena_generation{1};
std::atomic<std::size_t> g_live_arenas{0};

} // namespace

InputArena::InputArena(Private, Bytes owned, BytesView borrowed)
    : owned_(std::move(owned)),
      view_(owned_.empty() ? borrowed : BytesView(owned_)),
      generation_(g_arena_generation.fetch_add(1,
                                               std::memory_order_relaxed)),
      canary_(expected_canary(generation_))
{
    g_live_arenas.fetch_add(1, std::memory_order_relaxed);
}

InputArena::~InputArena()
{
    // Scramble the canary so a slice outliving its arena trips
    // check_pinned instead of silently streaming freed memory.
    canary_ = 0;
    g_live_arenas.fetch_sub(1, std::memory_order_relaxed);
}

std::shared_ptr<const InputArena>
InputArena::take(Bytes &&bytes)
{
    return std::make_shared<InputArena>(Private{}, std::move(bytes),
                                        BytesView{});
}

std::shared_ptr<const InputArena>
InputArena::copy(BytesView bytes)
{
    return take(Bytes(bytes.begin(), bytes.end()));
}

std::shared_ptr<const InputArena>
InputArena::borrow(BytesView bytes)
{
    return std::make_shared<InputArena>(Private{}, Bytes{}, bytes);
}

std::size_t
InputArena::live_count()
{
    return g_live_arenas.load(std::memory_order_relaxed);
}

std::uint64_t
InputArena::expected_canary(std::uint64_t gen)
{
    // Generation-keyed so a stale canary from a dead arena's reused
    // storage cannot accidentally satisfy a different arena's check.
    return gen ^ 0xA11E'AC5E'BADC'0DEFull;
}

ArenaSlice::ArenaSlice(Bytes owned)
    : arena_(InputArena::take(std::move(owned))), view_(arena_->view())
{
}

ArenaSlice::ArenaSlice(std::shared_ptr<const InputArena> arena)
    : arena_(std::move(arena)), view_(arena_ ? arena_->view() : BytesView{})
{
}

ArenaSlice::ArenaSlice(std::shared_ptr<const InputArena> arena,
                       std::size_t offset, std::size_t len)
    : arena_(std::move(arena))
{
    if (!arena_)
        throw UdpError("ArenaSlice: null arena");
    if (offset + len > arena_->size())
        throw UdpError("ArenaSlice: slice escapes its arena");
    view_ = arena_->view().subspan(offset, len);
}

ArenaSlice
ArenaSlice::copy_of(BytesView bytes)
{
    return ArenaSlice(InputArena::copy(bytes));
}

ArenaSlice
ArenaSlice::take(Bytes &&bytes)
{
    return ArenaSlice(InputArena::take(std::move(bytes)));
}

ArenaSlice
ArenaSlice::borrow(BytesView bytes)
{
    return ArenaSlice(InputArena::borrow(bytes));
}

ArenaSlice
ArenaSlice::subslice(std::size_t offset, std::size_t len) const
{
    if (offset + len > view_.size())
        throw UdpError("ArenaSlice: subslice out of range");
    ArenaSlice s;
    s.arena_ = arena_;
    s.view_ = view_.subspan(offset, len);
    return s;
}

bool
ArenaSlice::pinned() const
{
    if (view_.empty())
        return true;
    if (!arena_ || !arena_->alive())
        return false;
    const BytesView whole = arena_->view();
    return view_.data() >= whole.data() &&
           view_.data() + view_.size() <= whole.data() + whole.size();
}

void
ArenaSlice::check_pinned(const char *who, const std::string &job,
                         const char *slice) const
{
    if (pinned())
        return;
    throw UdpError(std::string(who) + ": job '" + job + "' " + slice +
                   " is not pinned by a live arena (the plan — or "
                   "the arena backing it — died before the run finished)");
}

Bytes
BufferPool::acquire()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.acquired;
    if (free_.empty())
        return Bytes{};
    ++stats_.reused;
    Bytes b = std::move(free_.back());
    free_.pop_back();
    b.clear(); // cleared, capacity intact
    return b;
}

void
BufferPool::release(Bytes &&b)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.released;
    if (free_.size() >= max_buffers_) {
        ++stats_.dropped;
        return; // let it free; the pool is full
    }
    free_.push_back(std::move(b));
}

BufferPool::Stats
BufferPool::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::size_t
BufferPool::free_buffers() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
}

} // namespace udp::runtime
