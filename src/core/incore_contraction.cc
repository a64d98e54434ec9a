#include <memory>
#include <utility>

#include "core/contraction_strategy.h"
#include "linalg/sparse_kernels.h"
#include "mapreduce/plan.h"
#include "mapreduce/scheduler.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace haten2 {

Result<SliceBlocks> ContractInCore(const ContractionContext& ctx) {
  Plan plan("contract-incore");
  auto timing = std::make_shared<ContractionTiming>();
  SliceBlocks blocks;
  int node = plan.AddProducer<SliceBlocks>(
      StrFormat("InCoreContract[m%d]", ctx.free_mode), {},
      [&ctx, timing]() -> Result<SliceBlocks> {
        // Layout acquisition: served from the per-decomposition cache when
        // present (iteration-invariant, like the dataflow record scan),
        // rebuilt for tensors that change between calls.
        WallTimer build_timer;
        std::shared_ptr<const CsfLayout> layout;
        if (ctx.cache != nullptr) {
          HATEN2_ASSIGN_OR_RETURN(layout,
                                  ctx.cache->Layout(*ctx.x, ctx.free_mode));
        } else {
          HATEN2_ASSIGN_OR_RETURN(CsfLayout built,
                                  BuildCsfLayout(*ctx.x, ctx.free_mode));
          layout = std::make_shared<const CsfLayout>(std::move(built));
        }
        timing->layout_build_seconds = build_timer.ElapsedSeconds();

        // The layout stores exactly the nonempty slices, ascending: its
        // slice ids are the output's, and the kernels fill one row each.
        SliceBlocks out;
        out.free_dim = ctx.x->dim(ctx.free_mode);
        out.slice_ids = layout->slice_ids;
        WallTimer eval_timer;
        if (ctx.kind != MergeKind::kCross) {
          out.block_dims = {ctx.block_dims[0]};
          const int rank = static_cast<int>(ctx.block_dims[0]);
          HATEN2_RETURN_IF_ERROR(
              CsfMttkrp(*layout, ctx.cfactors, rank, &out.values));
        } else {
          out.block_dims = ctx.block_dims;
          HATEN2_RETURN_IF_ERROR(CsfCrossContract(*layout, ctx.cfactors,
                                                  ctx.block_dims,
                                                  &out.values));
        }
        timing->evaluate_seconds = eval_timer.ElapsedSeconds();
        return out;
      },
      &blocks);
  plan.AnnotateContraction(node, "incore", timing);
  PlanScheduler scheduler(ctx.engine);
  HATEN2_RETURN_IF_ERROR(scheduler.Execute(plan));
  return blocks;
}

}  // namespace haten2
