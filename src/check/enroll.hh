/**
 * @file
 * Global checker enrollment.
 *
 * The per-object checkers are endpoint- or ring-scoped: each instance
 * guards its own state and knows nothing about the others. Two
 * consumers need the *global* view without the rigs having to
 * hand-register every checker they transitively construct:
 *
 *  - the schedule-space explorer (src/check/explore/) folds every live
 *    check::OwnershipTracker's region table into its state digest
 *    after each exploration step;
 *  - the happens-before shardability report (src/check/hb/) lists
 *    every live check::ContextGuard, touched or not.
 *
 * Enrolled<T> is that lift: a CRTP base that threads every live T onto
 * a thread-local intrusive list. T::forEachEnrolled() then visits all
 * live instances. Thread-local (not process-global) because parallel
 * test shards each run their own simulations; everything in a
 * simulation lives on one thread by construction.
 *
 * Enrollment makes the derived class non-movable and non-copyable —
 * acceptable for the checkers, which live inside endpoints and other
 * pinned objects. When UNET_CHECK is 0 the base is empty and imposes
 * nothing.
 */

#ifndef UNET_CHECK_ENROLL_HH
#define UNET_CHECK_ENROLL_HH

namespace unet::check {

#if defined(UNET_CHECK) && UNET_CHECK

/** Intrusive thread-local registry of all live instances of T. */
template <typename T>
class Enrolled
{
  public:
    /** Visit every live T on this thread, in unspecified order. The
     *  callback must not construct or destroy instances of T. */
    template <typename F>
    static void
    forEachEnrolled(F &&fn)
    {
        for (Enrolled *e = head(); e; e = e->next)
            fn(static_cast<const T &>(*e));
    }

  protected:
    Enrolled()
    {
        next = head();
        if (next)
            next->prev = this;
        head() = this;
    }

    ~Enrolled()
    {
        if (prev)
            prev->next = next;
        else
            head() = next;
        if (next)
            next->prev = prev;
    }

    Enrolled(const Enrolled &) = delete;
    Enrolled &operator=(const Enrolled &) = delete;

  private:
    static Enrolled *&
    head()
    {
        thread_local Enrolled *h = nullptr;
        return h;
    }

    Enrolled *next = nullptr;
    Enrolled *prev = nullptr;
};

#else // !UNET_CHECK

/** Empty stand-in: no list, no size cost beyond the empty base. */
template <typename T>
class Enrolled
{
  public:
    template <typename F>
    static void forEachEnrolled(F &&)
    {}
};

#endif // UNET_CHECK

} // namespace unet::check

#endif // UNET_CHECK_ENROLL_HH
