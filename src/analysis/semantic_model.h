/**
 * @file
 * Repo-wide semantic model for the v10lint semantic rule pack.
 *
 * The SemanticEngine accumulates per-file symbol summaries during
 * the collect() phase, then (lazily, on the first check()) builds
 * the call/containment graph, runs the reachability analysis from
 * every EventFn/ParallelExecutor entry lambda, and materializes the
 * violations each semantic rule reports:
 *
 *  - SharedState:    mutable members/globals reachable from event
 *                    or parallel contexts without a V10_* claim.
 *  - LockDiscipline: V10_GUARDED_BY members accessed without the
 *                    named mutex held, plus lock-order inversions.
 *  - FpOrder:        floating-point accumulation into shared state
 *                    from parallel contexts (order-dependent).
 *  - CycleOverflow:  cycle values flowing into narrow or signed
 *                    integer types (CycleDelta is the sanctioned
 *                    signed cycle type).
 *
 * Violations are addressed by (file, line) and sorted, so a rule's
 * check() just filters by the file it was handed; re-running over
 * identical sources yields byte-identical findings.
 */

#ifndef V10_ANALYSIS_SEMANTIC_MODEL_H
#define V10_ANALYSIS_SEMANTIC_MODEL_H

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/symbols.h"

namespace v10::analysis {

/** The four semantic analyses. */
enum class SemanticRule {
    SharedState,
    LockDiscipline,
    FpOrder,
    CycleOverflow,
};

/** One semantic diagnostic before it becomes a Finding. */
struct SemanticViolation
{
    std::string file; ///< root-relative path the finding lands in
    std::size_t line = 0;
    std::string message;
};

/** Shared across the four semantic rules of one rule pack. */
class SemanticEngine
{
  public:
    /** Record @p file's summary (idempotent per path). */
    void addFile(const SourceFile &file);

    /** Build the graph and run the analyses (idempotent). */
    void finalize();

    /** The sorted violations of @p rule (finalize() implied). */
    const std::vector<SemanticViolation> &
    violations(SemanticRule rule);

  private:
    struct FnRef
    {
        const FunctionSym *fn = nullptr;
        const FileSummary *in = nullptr;
    };
    struct MemberRef
    {
        const MemberSym *member = nullptr;
        const ClassSym *cls = nullptr;
        const FileSummary *in = nullptr;
    };

    void buildIndexes();
    void runReachability();
    void checkSharedState();
    void checkLockDiscipline();
    void checkFpOrder();
    void checkCycleOverflow();

    MemberRef memberOf(const std::string &className,
                       const std::string &memberName) const;
    /** The known class a member's type names, or "". */
    std::string typeClassOf(const std::string &type) const;
    std::vector<FnRef> callTargets(const FnRef &from,
                                   const CallSite &call) const;
    bool calleeReturnsCycles(const std::string &owner,
                             const std::string &callee) const;

    std::map<std::string, FileSummary> files_; ///< by path
    bool finalized_ = false;

    std::map<std::string,
             std::vector<std::pair<const ClassSym *,
                                   const FileSummary *>>>
        classesByName_;
    std::map<std::pair<std::string, std::string>,
             std::vector<FnRef>>
        fnsByKey_; ///< (ownerClass, name) -> bodies
    std::map<std::string,
             std::vector<std::pair<const GlobalSym *,
                                   const FileSummary *>>>
        globalsByName_;
    std::vector<FnRef> allFns_;

    /** Reachability flavor bits per function body. */
    static constexpr int kFromEvent = 1;
    static constexpr int kFromParallel = 2;
    // Lookup-only (probed per function from the deterministic
    // allFns_ walk, never iterated), so address order is inert.
    // v10lint: allow(determinism-pointer-key)
    std::map<const FunctionSym *, int> reach_;

    std::map<SemanticRule, std::vector<SemanticViolation>>
        violations_;
};

} // namespace v10::analysis

#endif // V10_ANALYSIS_SEMANTIC_MODEL_H
