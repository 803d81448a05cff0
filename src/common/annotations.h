/**
 * @file
 * Ownership annotation vocabulary for state that threads can reach.
 *
 * A run owns one Simulator and drains its events on one thread;
 * ParallelExecutor runs many runs side by side (sweep cells, the
 * serve layer's per-core workers). `--jobs N` output is
 * byte-identical to serial because no run mutates state another run
 * can see, except state declared shared below. These macros let a
 * declaration state which side of that contract it is on, and
 * v10lint's semantic rule pack (docs/STATIC_ANALYSIS.md) enforces
 * the claims mechanically:
 *
 *  - V10_DOMAIN_LOCAL      — owned by one run (its Simulator, core,
 *                            scheduler and registry) or one
 *                            ParallelExecutor task; never observed
 *                            concurrently.
 *  - V10_SHARED_STATE      — deliberately visible to more than one
 *                            run or worker thread; every access
 *                            needs external synchronization or a
 *                            merge protocol spelled out at the decl.
 *  - V10_GUARDED_BY(m)     — shared, and every access must hold the
 *                            named mutex member (lock_guard /
 *                            scoped_lock / unique_lock recognized;
 *                            constructors and destructors are exempt
 *                            as single-threaded).
 *  - V10_COUPLING_POINT    — where the tenants of one run contend
 *                            for a shared resource (the HBM
 *                            bandwidth arbiter): the paper's
 *                            resource coupling, in one place.
 *
 * Placement: on a class (`class V10_DOMAIN_LOCAL Simulator`) the
 * annotation covers every member; on a member it goes after the
 * declarator, before the initializer (`double moved_
 * V10_SHARED_STATE = 0;`), clang-attribute style; on a function it
 * precedes the declaration and marks the body as a sanctioned
 * coupling interface.
 *
 * The macros expand to nothing: they are a lint-time contract, not a
 * compile-time one, so no toolchain has to understand them. v10lint
 * reads them straight from the token stream (it does not run the
 * preprocessor), which is also why they must not be spelled through
 * further macro indirection.
 */

#ifndef V10_COMMON_ANNOTATIONS_H
#define V10_COMMON_ANNOTATIONS_H

/** State owned by exactly one run or ParallelExecutor task. */
#define V10_DOMAIN_LOCAL

/** State deliberately shared across runs or worker threads. */
#define V10_SHARED_STATE

/** Shared state whose every access must hold mutex member @p m. */
#define V10_GUARDED_BY(m)

/** Where one run's tenants contend for a shared resource. */
#define V10_COUPLING_POINT

#endif // V10_COMMON_ANNOTATIONS_H
