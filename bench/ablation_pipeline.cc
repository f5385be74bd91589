/**
 * @file
 * Ablation bench for the pipeline's design choices (DESIGN.md §5):
 *
 *  1. linkage criterion (single — the paper's choice — vs complete
 *     vs average): dendrogram shape and observation stability;
 *  2. PC retention (Kaiser vs fixed counts): retained variance and
 *     clustering outcome;
 *  3. K selection (BIC — the paper's choice — vs silhouette);
 *  4. representative strategy (nearest vs farthest, Table V).
 */

#include <iostream>

#include "common/table.h"
#include "core/report.h"
#include "stats/silhouette.h"
#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace bds;
    Session session(
        bdsbench::benchConfig("ablation_pipeline", argc, argv));
    auto base = bdsbench::characterizedPipeline(session);
    const Matrix &metrics = base.rawMetrics;
    const auto &names = base.names;

    // ---------------- 1: linkage ----------------
    std::cout << "Ablation 1 — linkage criterion\n";
    TextTable t1({"linkage", "same-stack 1st-iter share",
                  "final merge distance"});
    for (Linkage l :
         {Linkage::Single, Linkage::Complete, Linkage::Average}) {
        PipelineOptions opts;
        opts.linkage = l;
        auto res = runPipeline(metrics, names, opts);
        auto obs = analyzeSimilarity(res);
        t1.addRow({linkageName(l),
                   fmtDouble(100.0 * obs.sameStackShare, 1) + "%",
                   fmtDouble(res.dendrogram.merges().back().distance,
                             2)});
    }
    t1.print(std::cout);

    // ---------------- 2: PC retention ----------------
    std::cout << "\nAblation 2 — PC retention policy\n";
    TextTable t2({"policy", "PCs", "variance retained",
                  "BIC-selected K"});
    {
        auto res = runPipeline(metrics, names);
        t2.addRow({"Kaiser (paper)",
                   std::to_string(res.pca.numComponents),
                   fmtDouble(100.0 * res.pca.totalVarianceRetained, 1)
                       + "%",
                   std::to_string(res.bic.bestK())});
    }
    for (std::size_t forced : {2u, 4u, 8u, 16u}) {
        PipelineOptions opts;
        opts.pca.forcedComponents = forced;
        auto res = runPipeline(metrics, names, opts);
        t2.addRow({"fixed " + std::to_string(forced),
                   std::to_string(res.pca.numComponents),
                   fmtDouble(100.0 * res.pca.totalVarianceRetained, 1)
                       + "%",
                   std::to_string(res.bic.bestK())});
    }
    t2.print(std::cout);

    // ---------------- 3: K selection ----------------
    std::cout << "\nAblation 3 — K selection (BIC vs silhouette)\n";
    TextTable t3({"K", "BIC", "silhouette"});
    std::size_t sil_best = 0;
    double sil_best_score = -2.0;
    for (const auto &pt : base.bic.points) {
        double sil = silhouetteScore(base.pca.scores, pt.result.labels);
        if (sil > sil_best_score) {
            sil_best_score = sil;
            sil_best = pt.k;
        }
        t3.addRow({std::to_string(pt.k), fmtDouble(pt.bic, 1),
                   fmtDouble(sil, 3)});
    }
    t3.print(std::cout);
    std::cout << "BIC selects K = " << base.bic.bestK()
              << "; silhouette selects K = " << sil_best << '\n';

    // ---------------- 4: representative strategy ----------------
    std::cout << "\nAblation 4 — representative strategy (Table V)\n";
    TextTable t4({"strategy", "max linkage distance",
                  "representatives"});
    for (auto strat : {RepresentativeStrategy::NearestToCentroid,
                       RepresentativeStrategy::FarthestFromCentroid}) {
        auto subset = selectRepresentatives(base, strat);
        std::string reps;
        for (std::size_t r : subset.representatives) {
            if (!reps.empty())
                reps += ", ";
            reps += base.names[r];
        }
        t4.addRow({strategyName(strat),
                   fmtDouble(subset.maxPairwiseLinkage, 2), reps});
    }
    t4.print(std::cout);
    return 0;
}
