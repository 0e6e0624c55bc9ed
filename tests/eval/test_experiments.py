"""Every experiment driver runs at a tiny scale and shows the DESIGN.md
shape targets.  These are the repository's reproduction acceptance tests;
``benchmarks/paper/run.py`` runs the same drivers at benchmark scale.
"""

from __future__ import annotations

import pytest

from paper import (
    ablation_alpha,
    ablation_kernel_bandwidth,
    ablation_markov,
    ablation_predicate_order,
    fig2_background_prob,
    fig3_f1_all_queries,
    fig4_clip_size,
    fig5_frame_f1,
    runtime_decomposition,
    table3_predicates,
    table4_models,
    table5_noise,
    table6_movie_topk,
    table7_youtube_topk,
    table8_speedup,
)
from repro.video.datasets import YOUTUBE_QUERY_SETS

SCALE = 0.06  # tiny but non-degenerate


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2_background_prob.run(
            seed=0, scale=0.1, p0_grid=(1e-6, 1e-4, 1e-2, 1e-1)
        )

    def test_svaqd_flatter_than_svaq(self, result):
        for label in result.series:
            assert result.flatness(label, "svaqd") <= (
                result.flatness(label, "svaq") + 0.05
            )

    def test_svaqd_never_collapses(self, result):
        for label in result.series:
            assert min(result.series[label]["svaqd"]) >= 0.45

    def test_renders(self, result):
        text = result.render()
        assert "Figure 2" in text and "SVAQD" in text


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3_f1_all_queries.run(seed=0, scale=SCALE,
                                       specs=YOUTUBE_QUERY_SETS[:4])

    def test_f1_in_paper_band(self, result):
        for _, _, svaq, svaqd in result.rows:
            assert svaqd >= 0.5
            assert svaq >= 0.3

    def test_svaqd_competitive(self, result):
        assert result.mean_gain >= -0.1

    def test_renders(self, result):
        assert "Figure 3" in result.render()


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3_predicates.run(seed=0, scale=SCALE)

    def test_rows_cover_both_families(self, result):
        texts = [row[0] for row in result.rows]
        assert any("blowing leaves" in t for t in texts)
        assert any("washing dishes" in t for t in texts)
        assert len(result.rows) == 12

    def test_person_predicate_does_not_hurt(self, result):
        base = result.f1_for("a=washing dishes")
        with_person = result.f1_for("a=washing dishes, o1=person")
        assert with_person >= base - 0.15


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return table4_models.run(seed=0, scale=SCALE)

    def test_ideal_is_best(self, result):
        for algorithm in ("SVAQ", "SVAQD"):
            ideal = result.f1(algorithm, "Ideal Models")
            assert ideal >= result.f1(algorithm, "MaskRCNN+I3D") - 1e-9
            assert ideal >= result.f1(algorithm, "YOLOv3+I3D") - 1e-9
            assert ideal >= 0.85

    def test_maskrcnn_at_least_yolo(self, result):
        assert result.f1("SVAQD", "MaskRCNN+I3D") >= (
            result.f1("SVAQD", "YOLOv3+I3D") - 0.1
        )


class TestTable5:
    @pytest.fixture(scope="class")
    def result(self):
        return table5_noise.run(seed=0, scale=SCALE)

    def test_svaqd_reduces_fpr(self, result):
        for row in result.rows:
            assert row.action_fpr_svaqd <= row.action_fpr_raw
            assert row.object_fpr_svaqd <= row.object_fpr_raw

    def test_reduction_substantial(self, result):
        # the paper reports 50-80% reductions; demand at least 40% on
        # average at this miniature scale
        reductions = [r.action_reduction for r in result.rows]
        reductions += [r.object_reduction for r in result.rows]
        assert sum(reductions) / len(reductions) >= 0.4


class TestFig4And5:
    @pytest.fixture(scope="class")
    def fig4(self):
        return fig4_clip_size.run(seed=0, scale=SCALE, clip_sizes=(20, 50, 100))

    @pytest.fixture(scope="class")
    def fig5(self):
        return fig5_frame_f1.run(seed=0, scale=SCALE, clip_sizes=(20, 50, 100))

    def test_smaller_clips_more_sequences(self, fig4):
        # Aggregate across queries and algorithms: per-query counts at this
        # miniature scale are single digits and noisy.
        total_small = sum(
            counts[0]
            for label in fig4.sequences
            for counts in fig4.sequences[label].values()
        )
        total_large = sum(
            counts[-1]
            for label in fig4.sequences
            for counts in fig4.sequences[label].values()
        )
        assert total_small >= total_large

    def test_total_frames_stable(self, fig4):
        for label in fig4.frames:
            for algo, frames in fig4.frames[label].items():
                top, bottom = max(frames), max(1, min(frames))
                assert top / bottom <= 1.8, (label, algo, frames)

    def test_frame_f1_flat(self, fig5):
        for label in fig5.series:
            assert fig5.spread(label, "svaqd") <= 0.3

    def test_renders(self, fig4, fig5):
        assert "Figure 4" in fig4.render()
        assert "Figure 5" in fig5.render()


class TestRuntimeDecomposition:
    @pytest.fixture(scope="class")
    def result(self):
        return runtime_decomposition.run(seed=0, scale=SCALE)

    def test_inference_dominates(self, result):
        assert result.decomposition.inference_share > 0.9

    def test_end_to_end_much_slower(self, result):
        assert result.endtoend_slowdown > 5.0

    def test_f1_gap_small(self, result):
        assert result.endtoend_f1 - result.svaqd_f1 <= 0.05


class TestTable6:
    @pytest.fixture(scope="class")
    def result(self):
        return table6_movie_topk.run(seed=0, scale=0.1, k_grid=(1, 5))

    def test_fa_worst_random_accesses(self, result):
        for k in (1, 5):
            fa = result.measurement("fa", k).random_accesses
            for other in ("rvaq", "pq-traverse"):
                assert fa >= result.measurement(other, k).random_accesses

    def test_traverse_flat_in_k(self, result):
        a = result.measurement("pq-traverse", 1)
        b = result.measurement("pq-traverse", 5)
        assert a.random_accesses == b.random_accesses

    def test_rvaq_fewest_randoms_small_k(self, result):
        rvaq = result.measurement("rvaq", 1).random_accesses
        assert rvaq <= result.measurement("fa", 1).random_accesses
        assert rvaq <= result.measurement("pq-traverse", 1).random_accesses

    def test_renders(self, result):
        assert "Table 6" in result.render()


class TestTable7:
    @pytest.fixture(scope="class")
    def result(self):
        return table7_youtube_topk.run(seed=0, scale=0.05, qids=("q1",))

    def test_fa_worst(self, result):
        fa = result.measurement("q1", "fa").random_accesses
        rvaq = result.measurement("q1", "rvaq").random_accesses
        assert fa > rvaq

    def test_renders(self, result):
        assert "Table 7" in result.render()


class TestTable8:
    @pytest.fixture(scope="class")
    def result(self):
        return table8_speedup.run(
            seed=0, scale=0.3, movies=("Iron Man",), k_grid=(1, 3)
        )

    def test_rvaq_wins_at_small_k(self, result):
        assert result.speedup("Iron Man", 1) > 1.0

    def test_speedup_decays_toward_max_k(self, result):
        assert result.max_k_speedup("Iron Man") <= (
            result.speedup("Iron Man", 1) + 0.2
        )

    def test_ranking_accuracy(self, result):
        overall, top = result.accuracy["Iron Man"]
        assert overall >= 0.5
        assert top >= 0.5

    def test_renders(self, result):
        assert "Table 8" in result.render()


class TestAblations:
    def test_alpha(self):
        result = ablation_alpha.run(seed=0, scale=SCALE, alphas=(0.01, 0.2))
        assert len(result.rows) == 2
        assert "alpha" in result.render()

    def test_kernel_bandwidth(self):
        result = ablation_kernel_bandwidth.run(
            seed=0, n_videos=2, duration_s=300.0, bandwidths=(2_500.0, 60_000.0)
        )
        assert len(result.rows) == 2
        assert all(0.0 <= row[1] <= 1.0 for row in result.rows)

    def test_predicate_order(self):
        result = ablation_predicate_order.run(seed=0, scale=SCALE)
        assert result.cost("selective") <= result.cost("anti") + 1e-9
        assert all(same for _, _, same in result.rows)

    def test_markov(self):
        result = ablation_markov.run(seed=0, stream_length=30_000,
                                     burstiness_grid=(1.0, 6.0))
        first, last = result.rows[0], result.rows[-1]
        assert last.k_markov >= first.k_markov
        assert last.fpr_at_markov <= last.fpr_at_iid + 1e-9
