// Registration of every in-repo roundtrip routing scheme with the global
// SchemeRegistry.  Adding a scheme (or an option variant) is one add() line
// plus, when the scheme supports snapshots, one set_arena_hooks() line
// pairing its save_arena()/from_arena().
#include <memory>
#include <utility>

#include "baseline/full_table.h"
#include "core/exstretch.h"
#include "core/hashed_stretch6.h"
#include "core/polystretch.h"
#include "core/stretch6.h"
#include "io/arena.h"
#include "net/scheme.h"
#include "net/scheme_adapter.h"
#include "rtz/rtz3_scheme.h"

namespace rtr {
namespace {

void check_complete(const BuildContext& ctx, const char* scheme) {
  if (ctx.graph == nullptr || ctx.metric == nullptr || ctx.rng == nullptr) {
    throw std::invalid_argument(std::string(scheme) +
                                ": incomplete BuildContext");
  }
}

/// Schemes reference the context's graph/metric without owning them; the
/// adapter retains both so a registry-built scheme outlives its context.
std::vector<std::shared_ptr<const void>> context_deps(const BuildContext& ctx) {
  return {ctx.graph, ctx.metric};
}

template <TemplatedScheme S, typename... Args>
std::shared_ptr<const Scheme> build_adapted(const BuildContext& ctx,
                                            Args&&... args) {
  return adapt_scheme(std::make_shared<const S>(std::forward<Args>(args)...),
                      context_deps(ctx));
}

/// Snapshot saver for adapter-wrapped schemes: unwraps the adapter the
/// factories produce and writes the concrete scheme's sections under
/// "scheme/" (a TINN scheme's substrate nests one level deeper, e.g.
/// "scheme/s/").
template <TemplatedScheme S>
void save_sections(const Scheme& scheme, ArenaWriter& w) {
  const auto* adapter = dynamic_cast<const TemplateSchemeAdapter<S>*>(&scheme);
  if (adapter == nullptr) {
    throw std::invalid_argument(
        "snapshot save: scheme instance does not match this registry entry");
  }
  adapter->impl().save_arena(w, "scheme/");
}

const Digraph& require_snapshot_graph(const SnapshotLoadContext& ctx) {
  if (ctx.graph == nullptr) {
    throw std::invalid_argument("snapshot load: context without graph");
  }
  return *ctx.graph;
}

}  // namespace

void register_builtin_schemes(SchemeRegistry& registry) {
  registry.add("stretch6", "Section 2 stretch-6 TINN scheme (O~(sqrt n) tables)",
               [](const BuildContext& ctx) -> std::shared_ptr<const Scheme> {
                 check_complete(ctx, "stretch6");
                 Stretch6Scheme::Options opts;
                 opts.threads = ctx.option_int("threads", opts.threads);
                 return build_adapted<Stretch6Scheme>(
                     ctx, *ctx.graph, *ctx.metric, ctx.names, *ctx.rng, opts);
               });
  registry.add("stretch6-detour",
               "Section 2.2 variant returning to the source after the "
               "dictionary lookup",
               [](const BuildContext& ctx) -> std::shared_ptr<const Scheme> {
                 check_complete(ctx, "stretch6-detour");
                 Stretch6Scheme::Options opts;
                 opts.detour_via_source = true;
                 opts.threads = ctx.option_int("threads", opts.threads);
                 return build_adapted<Stretch6Scheme>(
                     ctx, *ctx.graph, *ctx.metric, ctx.names, *ctx.rng, opts);
               });
  registry.add("exstretch",
               "Section 3 exponential stretch/space tradeoff (option k, "
               "default 3)",
               [](const BuildContext& ctx) -> std::shared_ptr<const Scheme> {
                 check_complete(ctx, "exstretch");
                 ExStretchScheme::Options opts;
                 opts.k = ctx.option_int("k", opts.k);
                 opts.threads = ctx.option_int("threads", opts.threads);
                 return build_adapted<ExStretchScheme>(
                     ctx, *ctx.graph, *ctx.metric, ctx.names, *ctx.rng, opts);
               });
  registry.add("polystretch",
               "Section 4 polynomial stretch/space tradeoff (option k, "
               "default 3)",
               [](const BuildContext& ctx) -> std::shared_ptr<const Scheme> {
                 check_complete(ctx, "polystretch");
                 PolyStretchScheme::Options opts;
                 opts.k = ctx.option_int("k", opts.k);
                 opts.threads = ctx.option_int("threads", opts.threads);
                 return build_adapted<PolyStretchScheme>(
                     ctx, *ctx.graph, *ctx.metric, ctx.names, opts);
               });
  registry.add("rtz3",
               "Lemma 2 name-dependent stretch-3 substrate (option "
               "greedy_centers)",
               [](const BuildContext& ctx) -> std::shared_ptr<const Scheme> {
                 check_complete(ctx, "rtz3");
                 Rtz3Scheme::Options opts;
                 opts.greedy_centers =
                     ctx.option_bool("greedy_centers", opts.greedy_centers);
                 opts.threads = ctx.option_int("threads", opts.threads);
                 return build_adapted<Rtz3Scheme>(
                     ctx, *ctx.graph, *ctx.metric, ctx.names, *ctx.rng, opts);
               });
  registry.add("fulltable",
               "Classical full next-hop tables, stretch 1, Theta(n log n) "
               "bits/node",
               [](const BuildContext& ctx) -> std::shared_ptr<const Scheme> {
                 if (ctx.graph == nullptr) {
                   throw std::invalid_argument("fulltable: incomplete BuildContext");
                 }
                 return adapt_scheme(std::make_shared<const FullTableScheme>(
                                         *ctx.graph, ctx.names),
                                     {ctx.graph});
               });
  registry.add("hashed64",
               "Section 1.1.2 reduction: self-chosen 64-bit names hashed onto "
               "buckets",
               [](const BuildContext& ctx) -> std::shared_ptr<const Scheme> {
                 check_complete(ctx, "hashed64");
                 const ChosenNames chosen =
                     ChosenNames::random(ctx.graph->node_count(), *ctx.rng);
                 HashedStretch6Scheme::Options opts;
                 opts.threads = ctx.option_int("threads", opts.threads);
                 return build_adapted<Hashed64Scheme>(
                     ctx, ctx.names,
                     std::make_shared<const HashedStretch6Scheme>(
                         *ctx.graph, *ctx.metric, chosen, *ctx.rng, opts));
               });

  // --- snapshot hooks: save_arena()/from_arena() pairs per entry ----------
  registry.set_arena_hooks(
      "rtz3", &save_sections<Rtz3Scheme>,
      [](const ArenaView& a,
         const SnapshotLoadContext& ctx) -> std::shared_ptr<const Scheme> {
        return adapt_scheme(
            std::make_shared<const Rtz3Scheme>(Rtz3Scheme::from_arena(
                a, "scheme/", require_snapshot_graph(ctx), ctx.names)),
            {ctx.graph});
      });
  // The detour flag travels inside the scheme meta, so both stretch6
  // variants share one hook pair.
  const auto stretch6_loader =
      [](const ArenaView& a,
         const SnapshotLoadContext& ctx) -> std::shared_ptr<const Scheme> {
    return adapt_scheme(
        std::make_shared<const Stretch6Scheme>(Stretch6Scheme::from_arena(
            a, "scheme/", require_snapshot_graph(ctx), ctx.names)),
        {ctx.graph});
  };
  registry.set_arena_hooks("stretch6", &save_sections<Stretch6Scheme>,
                           stretch6_loader);
  registry.set_arena_hooks("stretch6-detour", &save_sections<Stretch6Scheme>,
                           stretch6_loader);
  registry.set_arena_hooks(
      "exstretch", &save_sections<ExStretchScheme>,
      [](const ArenaView& a,
         const SnapshotLoadContext& ctx) -> std::shared_ptr<const Scheme> {
        return adapt_scheme(std::make_shared<const ExStretchScheme>(
            ExStretchScheme::from_arena(a, "scheme/", ctx.names)));
      });
  registry.set_arena_hooks(
      "polystretch", &save_sections<PolyStretchScheme>,
      [](const ArenaView& a,
         const SnapshotLoadContext& ctx) -> std::shared_ptr<const Scheme> {
        return adapt_scheme(std::make_shared<const PolyStretchScheme>(
            PolyStretchScheme::from_arena(a, "scheme/", ctx.names)));
      });
  registry.set_arena_hooks(
      "fulltable", &save_sections<FullTableScheme>,
      [](const ArenaView& a,
         const SnapshotLoadContext& ctx) -> std::shared_ptr<const Scheme> {
        return adapt_scheme(std::make_shared<const FullTableScheme>(
            FullTableScheme::from_arena(a, "scheme/", ctx.names)));
      });
  // The chosen names travel inside the scheme sections, so the loader needs
  // only the graph and the TINN names the snapshot already carries.
  registry.set_arena_hooks(
      "hashed64", &save_sections<Hashed64Scheme>,
      [](const ArenaView& a,
         const SnapshotLoadContext& ctx) -> std::shared_ptr<const Scheme> {
        return adapt_scheme(
            std::make_shared<const Hashed64Scheme>(
                ctx.names, std::make_shared<const HashedStretch6Scheme>(
                               HashedStretch6Scheme::from_arena(
                                   a, "scheme/", require_snapshot_graph(ctx)))),
            {ctx.graph});
      });

  // --- incremental repair hooks (ROADMAP: epoch repair under churn) ---------
  // Only schemes with a certified-equivalence repair path register one;
  // everything else silently falls back to a full rebuild.  Each hook
  // unwraps the adapter exactly like the snapshot saver and rewraps the
  // repaired implementation with the new context's retained deps.
  registry.set_repair_hook(
      "rtz3",
      [](const Scheme& old_scheme, const Digraph& old_graph,
         const BuildContext& ctx,
         const ChurnDelta& delta) -> std::shared_ptr<const Scheme> {
        const auto* adapter =
            dynamic_cast<const TemplateSchemeAdapter<Rtz3Scheme>*>(&old_scheme);
        if (adapter == nullptr) return nullptr;
        check_complete(ctx, "rtz3");
        Rtz3Scheme::Options opts;
        opts.greedy_centers =
            ctx.option_bool("greedy_centers", opts.greedy_centers);
        opts.threads = ctx.option_int("threads", opts.threads);
        auto repaired =
            Rtz3Scheme::repair(adapter->impl(), old_graph, *ctx.graph,
                               *ctx.metric, ctx.names, *ctx.rng, delta, opts);
        if (repaired == nullptr) return nullptr;
        return adapt_scheme(std::move(repaired), context_deps(ctx));
      });
  registry.set_repair_hook(
      "fulltable",
      [](const Scheme& old_scheme, const Digraph& old_graph,
         const BuildContext& ctx,
         const ChurnDelta& delta) -> std::shared_ptr<const Scheme> {
        const auto* adapter =
            dynamic_cast<const TemplateSchemeAdapter<FullTableScheme>*>(
                &old_scheme);
        if (adapter == nullptr || ctx.graph == nullptr) return nullptr;
        auto repaired = FullTableScheme::repair(adapter->impl(), old_graph,
                                                *ctx.graph, ctx.names, delta);
        if (repaired == nullptr) return nullptr;
        return adapt_scheme(std::move(repaired), {ctx.graph});
      });
}

}  // namespace rtr
