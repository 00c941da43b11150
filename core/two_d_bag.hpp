// TwoDBag: the 2D window framework as an unordered bag (pool) — the
// natural scheduling core for the open-loop service harness
// (harness/service/).
//
// A bag promises multiset semantics only: every push is eventually popped
// exactly once, pops never fail while items exist, and *no* rank-error
// bound is claimed. What the window buys instead is balance: a push is
// eligible on a column whose count is below the window, a pop on a column
// inside the band (count > max − depth), so neither side can herd onto one
// column while siblings sit idle or drained — the property a scheduler
// run-queue needs from relaxation. That is exactly the 2D-stack's
// mechanism, so the bag is the stack with the BagOrder pop certification
// (core/two_d_stack.hpp): dropping the order claim lets a certified failed
// pop sweep snap the window down instead of stepping it by `shift`.
#pragma once

#include "core/two_d_stack.hpp"

namespace r2d {

template <typename T, typename Reclaimer = reclaim::EpochReclaimer,
          template <typename> class Alloc = reclaim::PoolAlloc>
using TwoDBag = TwoDStack<T, Reclaimer, Alloc, core::BagOrder>;

}  // namespace r2d
