from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from glioseg.staple import (
    RaterDecisions,
    StapleConfig,
    _distinct_columns,
    _staple_foreground,
    fuse_labels,
    majority_vote,
    staple_binary,
)
from glioseg.volume import (
    LabelVolume,
    Region,
    extract_region,
    label_box,
    reconstruct_labels,
)

from oracles import em_consensus_oracle

TIGHT = StapleConfig(tolerance=1e-13, max_iterations=500)


def test_consensus_fixed_point():
    # all raters agree on a non-trivial mask: fused output is that mask
    rng = np.random.default_rng(400)
    for _ in range(20):
        mask = rng.random(60) < rng.uniform(0.2, 0.8)
        if not mask.any() or mask.all():
            continue
        rows = np.stack([mask] * 4)
        result = staple_binary(RaterDecisions(rows))
        assert np.array_equal(result.foreground, mask)
        # unanimously correct raters ride the upper clamp
        assert np.all(result.sensitivity >= 1.0 - 2e-6)
        assert np.all(result.specificity >= 1.0 - 2e-6)


def test_spec_worked_instance_matches_oracle():
    # raters 1 and 2 mark voxels 0..3, rater 3 marks voxels 2..5, of 8
    rows = np.zeros((3, 8), dtype=bool)
    rows[0, 0:4] = True
    rows[1, 0:4] = True
    rows[2, 2:6] = True
    decisions = RaterDecisions(rows)
    result = staple_binary(decisions, TIGHT)
    prior = rows.mean()
    w_oracle, p_oracle, q_oracle = em_consensus_oracle(
        rows, prior, 0.99999, 0.99999, max_iterations=5000
    )
    assert np.max(np.abs(result.weights - w_oracle)) < 1e-9
    assert np.max(np.abs(result.sensitivity - p_oracle)) < 1e-9
    assert np.max(np.abs(result.specificity - q_oracle)) < 1e-9
    assert np.array_equal(result.foreground, w_oracle >= 0.5)


def test_random_instances_match_oracle_trajectory():
    # Noisy rater sets can take tens of thousands of EM passes to pin, so
    # algebraic equivalence is checked at matched iteration counts: after
    # the same number of E+M passes, log-space and plain-product EM must
    # agree to float precision.
    rng = np.random.default_rng(401)

    def check(num_raters, trial):
        num_voxels = int(rng.integers(8, 200))
        rows = rng.random((num_raters, num_voxels)) < rng.uniform(0.2, 0.8)
        if rows.mean() in (0.0, 1.0):
            return
        passes = int(rng.integers(3, 120))
        config = StapleConfig(tolerance=1e-300, max_iterations=passes)
        result = staple_binary(RaterDecisions(rows), config)
        w_oracle, p_oracle, q_oracle = em_consensus_oracle(
            rows, rows.mean(), 0.99999, 0.99999, max_iterations=passes, tol=0.0
        )
        assert np.max(np.abs(result.weights - w_oracle)) < 1e-9, f"trial {trial}"
        assert np.max(np.abs(result.sensitivity - p_oracle)) < 1e-9
        assert np.max(np.abs(result.specificity - q_oracle)) < 1e-9

    for trial in range(25):
        check(int(rng.integers(1, 7)), trial)
    # more raters: 2^J passes the voxel count, and J >= 64 rules out a vote
    # code packed into one 64-bit integer
    for num_raters in (9, 17, 64, 70):
        check(num_raters, f"J={num_raters}")


def test_memory_is_bounded_by_vote_patterns():
    # 16 raters over 2^20 voxels with 64 distinct vote columns: a float64
    # copy of the votes alone would be 128 MiB
    rng = np.random.default_rng(415)
    patterns = rng.random((16, 64)) < 0.5
    rows = patterns[:, rng.integers(0, 64, size=1 << 20)]
    decisions = RaterDecisions(rows)
    tracemalloc.start()
    try:
        result = staple_binary(decisions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.weights.shape == (1 << 20,)
    assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_distinct_columns_match_numpy_unique():
    rng = np.random.default_rng(417)
    for base in (2, 4):
        for num_rows in range(1, 41):
            for num_columns in (1, 2, int(rng.integers(3, 400))):
                rows = rng.integers(0, base, size=(num_rows, num_columns))
                if num_rows % 3 == 0:  # few distinct columns, many repeats
                    rows = rows[:, rng.integers(0, min(num_columns, 5), size=num_columns)]
                if base == 2:
                    rows = rows.astype(bool)
                columns, counts, ids = _distinct_columns(rows, base)
                want, inverse, want_counts = np.unique(
                    rows, axis=1, return_inverse=True, return_counts=True
                )
                where = f"base {base}, J={num_rows}, N={num_columns}"
                assert np.array_equal(columns, want), where
                assert np.array_equal(counts, want_counts), where
                assert np.array_equal(ids, inverse.ravel()), where


def test_staple_on_column_counts_equals_expanded_voxels():
    rng = np.random.default_rng(418)
    instances = []
    for _ in range(40):
        num_raters = int(rng.integers(1, 8))
        num_columns = int(rng.integers(1, 40))
        # columns may repeat, so a vote pattern can gather several columns
        columns = rng.random((num_raters, num_columns)) < rng.uniform(0.1, 0.9)
        instances.append((columns, rng.integers(1, 60, size=num_columns)))
    instances.append((np.zeros((3, 4), dtype=bool), np.array([5, 1, 2, 9])))  # prior 0
    instances.append((np.ones((2, 3), dtype=bool), np.array([7, 3, 1])))  # prior 1
    configs = (StapleConfig(), StapleConfig(prior=0.3, max_iterations=7), TIGHT)
    for trial, (columns, counts) in enumerate(instances):
        config = configs[trial % len(configs)]
        folded = staple_binary(RaterDecisions(columns, counts), config)
        voxels = np.repeat(columns, counts, axis=1)
        expanded = staple_binary(RaterDecisions(voxels), config)
        first_voxel = np.cumsum(counts) - counts
        assert folded.iterations == expanded.iterations, trial
        assert folded.converged == expanded.converged, trial
        assert folded.degenerate == expanded.degenerate, trial
        for name in ("sensitivity", "specificity"):
            assert np.array_equal(getattr(folded, name), getattr(expanded, name)), trial
        assert np.array_equal(folded.weights, expanded.weights[first_voxel])
        assert np.array_equal(np.repeat(folded.foreground, counts), expanded.foreground)


def test_structured_instances_reach_oracle_fixed_point():
    # Raters derived from a common truth by independent flips: here EM
    # pins to an exact fixed point quickly, and implementation and oracle
    # must land on the same converged W.
    rng = np.random.default_rng(414)
    checked = 0
    for _ in range(15):
        num_raters = int(rng.integers(2, 7))
        num_voxels = int(rng.integers(50, 400))
        truth = rng.random(num_voxels) < rng.uniform(0.3, 0.7)
        flip = rng.uniform(0.05, 0.15)
        rows = np.stack(
            [truth ^ (rng.random(num_voxels) < flip) for _ in range(num_raters)]
        )
        if rows.mean() in (0.0, 1.0):
            continue
        config = StapleConfig(tolerance=1e-300, max_iterations=3000)
        result = staple_binary(RaterDecisions(rows), config)
        if not result.converged:
            continue  # rare slow instance; covered by the trajectory test
        w_oracle, _, _ = em_consensus_oracle(
            rows, rows.mean(), 0.99999, 0.99999, max_iterations=30000, tol=1e-300
        )
        assert np.max(np.abs(result.weights - w_oracle)) < 1e-9
        checked += 1
    assert checked >= 10


def test_single_rater_returns_own_mask():
    rng = np.random.default_rng(402)
    mask = rng.random(40) < 0.4
    result = staple_binary(RaterDecisions(mask[None, :]))
    assert np.array_equal(result.foreground, mask)


def test_explicit_prior_matches_oracle():
    rng = np.random.default_rng(403)
    rows = rng.random((3, 50)) < 0.5
    config = StapleConfig(prior=0.3, tolerance=1e-300, max_iterations=80)
    result = staple_binary(RaterDecisions(rows), config)
    w_oracle, _, _ = em_consensus_oracle(rows, 0.3, 0.99999, 0.99999, 80, tol=0.0)
    assert np.max(np.abs(result.weights - w_oracle)) < 1e-9


def test_degenerate_all_empty():
    rows = np.zeros((3, 20), dtype=bool)
    config = StapleConfig(initial_sensitivity=0.9999999, initial_specificity=0.3)
    result = staple_binary(RaterDecisions(rows), config)
    assert result.degenerate
    assert not result.foreground.any()
    assert np.all(result.weights == 0.0)
    assert result.iterations == 0 and result.converged
    # the initial performance, clamped into [1e-6, 1 - 1e-6]
    assert np.array_equal(result.sensitivity, np.full(3, 1.0 - 1e-6))
    assert np.array_equal(result.specificity, np.full(3, 0.3))


def test_degenerate_all_full():
    rows = np.ones((2, 15), dtype=bool)
    result = staple_binary(RaterDecisions(rows))
    assert result.degenerate
    assert result.foreground.all()
    assert np.all(result.weights == 1.0)
    assert result.iterations == 0 and result.converged
    assert np.array_equal(result.sensitivity, np.full(2, 0.99999))
    assert np.array_equal(result.specificity, np.full(2, 0.99999))


def test_rater_order_invariance():
    rng = np.random.default_rng(404)
    rows = rng.random((4, 80)) < 0.45
    base = staple_binary(RaterDecisions(rows), TIGHT)
    perm = rng.permutation(4)
    permuted = staple_binary(RaterDecisions(rows[perm]), TIGHT)
    assert np.array_equal(base.foreground, permuted.foreground)
    assert np.allclose(base.sensitivity[perm], permuted.sensitivity, atol=1e-12)
    assert np.allclose(base.specificity[perm], permuted.specificity, atol=1e-12)


def test_determinism():
    rng = np.random.default_rng(405)
    rows = rng.random((5, 100)) < 0.5
    r1 = staple_binary(RaterDecisions(rows))
    r2 = staple_binary(RaterDecisions(rows))
    assert np.array_equal(r1.weights, r2.weights)
    assert np.array_equal(r1.foreground, r2.foreground)
    assert r1.iterations == r2.iterations


def _log_likelihood(rows, prior, p, q):
    d = rows.astype(np.float64)
    a = prior * np.prod(np.where(d > 0.5, p[:, None], 1 - p[:, None]), axis=0)
    b = (1 - prior) * np.prod(np.where(d > 0.5, 1 - q[:, None], q[:, None]), axis=0)
    return float(np.log(a + b).sum())


def test_monotone_log_likelihood():
    rng = np.random.default_rng(406)
    rows = rng.random((4, 60)) < 0.4
    decisions = RaterDecisions(rows)
    prior = rows.mean()
    previous = -np.inf
    for k in range(1, 12):
        config = StapleConfig(tolerance=1e-16, max_iterations=k)
        result = staple_binary(decisions, config)
        ll = _log_likelihood(rows, prior, result.sensitivity, result.specificity)
        assert ll >= previous - 1e-9, f"likelihood dropped at iteration {k}"
        previous = ll


def test_agreement_preservation():
    # voxels where every rater agrees keep that value when the converged
    # performances are all above one half
    rng = np.random.default_rng(407)
    for _ in range(10):
        rows = rng.random((3, 120)) < 0.5
        result = staple_binary(RaterDecisions(rows), TIGHT)
        if result.degenerate:
            continue
        p, q = result.sensitivity, result.specificity
        if not (np.all(p > 0.5) and np.all(q > 0.5)):
            continue
        votes = rows.sum(axis=0)
        fused = result.foreground
        assert np.all(fused[votes == 3])
        assert not np.any(fused[votes == 0])


def test_convergence_reporting():
    rng = np.random.default_rng(408)
    rows = rng.random((3, 50)) < 0.5
    relaxed = staple_binary(RaterDecisions(rows), StapleConfig(tolerance=1e-3))
    assert relaxed.converged
    assert relaxed.iterations <= 100
    starved = staple_binary(
        RaterDecisions(rows), StapleConfig(tolerance=1e-16, max_iterations=2)
    )
    assert not starved.converged
    assert starved.iterations == 2


def test_majority_vote_rules():
    rows = np.array(
        [
            [True, True, False],
            [True, False, False],
            [False, False, False],
        ]
    )
    # votes per voxel: 2, 1, 0 of J=3
    fused = majority_vote(RaterDecisions(rows))
    assert fused.tolist() == [True, False, False]
    # J=2 tie goes to background
    tie = np.array([[True, True], [True, False]])
    fused2 = majority_vote(RaterDecisions(tie))
    assert fused2.tolist() == [True, False]


def test_majority_equals_staple_on_unanimous_raters():
    rng = np.random.default_rng(409)
    mask = rng.random(30) < 0.5
    if not mask.any() or mask.all():
        mask[0] = True
        mask[1] = False
    rows = np.stack([mask] * 3)
    decisions = RaterDecisions(rows)
    assert np.array_equal(majority_vote(decisions), staple_binary(decisions).foreground)


def random_label_volume(rng, dims=(6, 6, 6)):
    data = rng.integers(0, 4, size=dims).astype(np.uint8)
    return LabelVolume(data)


def test_fuse_identical_predictions():
    rng = np.random.default_rng(410)
    vol = random_label_volume(rng)
    fused = fuse_labels([vol, vol, vol])
    # identical inputs: every region is a consensus fixed point, and
    # reconstruction of the input's own region masks reproduces it
    assert np.array_equal(fused.data, vol.data)


def test_fuse_two_against_one():
    rng = np.random.default_rng(411)
    a = random_label_volume(rng)
    outlier = random_label_volume(rng)
    fused = fuse_labels([a, a, outlier])
    assert np.array_equal(fused.data, a.data)
    fused_mv = fuse_labels([a, a, outlier], method="majority")
    assert np.array_equal(fused_mv.data, a.data)


def test_fuse_output_is_nested():
    rng = np.random.default_rng(412)
    vols = [random_label_volume(rng, (8, 8, 8)) for _ in range(3)]
    fused = fuse_labels(vols)
    et = extract_region(fused.data, Region.ET)
    tc = extract_region(fused.data, Region.TC)
    wt = extract_region(fused.data, Region.WT)
    assert np.all(tc[et])
    assert np.all(wt[tc])


def test_fuse_warns_for_each_region_that_does_not_converge(caplog):
    rng = np.random.default_rng(414)
    vols = [random_label_volume(rng, (8, 8, 8)) for _ in range(3)]
    with caplog.at_level("WARNING", logger="glioseg"):
        fuse_labels(vols, StapleConfig(tolerance=1e-3))  # converges: silent
        fuse_labels(vols, StapleConfig(max_iterations=1), method="majority")  # no EM
        assert not caplog.records
        fuse_labels(vols, StapleConfig(max_iterations=1))
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == len(Region)
    for region, message in zip(Region, warnings):
        assert region.name in message
        assert "1 iteration(s)" in message and "1e-07" in message


def test_fuse_logs_each_region_and_member_performance(caplog):
    rng = np.random.default_rng(416)
    truth = random_label_volume(rng, (8, 8, 8)).data
    vols = []
    for _ in range(3):  # members that each relabel ~10% of the voxels
        noisy = np.where(rng.random(truth.shape) < 0.1, rng.integers(0, 4, truth.shape), truth)
        vols.append(LabelVolume(noisy.astype(np.uint8)))
    with caplog.at_level("INFO", logger="glioseg.staple"):
        fuse_labels(vols, method="majority")
        assert not caplog.records
        fuse_labels(vols)
    messages = [r.getMessage() for r in caplog.records]
    assert [r.levelname for r in caplog.records] == ["INFO"] * len(Region)
    for region, message in zip(Region, messages):
        assert message.startswith(f"STAPLE {region.name} converged after ")
        assert "(tolerance 1e-07)" in message
        for name in ("sensitivity", "specificity"):
            values = re.search(name + r" \[([^]]*)\]", message).group(1).split(", ")
            assert len(values) == 3
            assert all(re.fullmatch(r"[01]\.\d{4}", v) for v in values), message


def fuse_reference(predictions, config, method):
    """Region-wise fusion over every voxel: one vote column per voxel."""
    first = predictions[0]
    fused = {}
    for region in Region:
        decisions = RaterDecisions(
            np.stack([extract_region(p.data, region).ravel() for p in predictions])
        )
        if method == "majority":
            foreground = majority_vote(decisions)
        else:
            foreground = _staple_foreground(decisions, region, config)
        fused[region] = foreground.reshape(first.dims)
    return first.with_data(
        reconstruct_labels(fused[Region.ET], fused[Region.TC], fused[Region.WT])
    )


def test_fuse_matches_region_wise_voxel_reference(caplog):
    rng = np.random.default_rng(419)
    spacing = (0.7, 1.3, 2.5)
    orientation = np.array(
        [[0.0, -1.3, 0.0, 12.5], [0.7, 0.0, 0.0, -40.0], [0.0, 0.0, -2.5, 7.25]]
    )

    def members(num, dims, labels=(0, 1, 2, 3), noise=0.15):
        truth = rng.choice(labels, size=dims)
        out = []
        for _ in range(num):
            relabel = rng.random(dims) < noise
            data = np.where(relabel, rng.choice(labels, size=dims), truth)
            out.append(LabelVolume(data.astype(np.uint8), spacing, orientation))
        return out

    def framed(inner, dims, corner):
        """inner's members pasted at corner into background grids of dims."""
        at = tuple(slice(c, c + n) for c, n in zip(corner, inner[0].dims))
        out = []
        for member in inner:
            data = np.zeros(dims, dtype=np.uint8)
            data[at] = member.data
            out.append(LabelVolume(data, spacing, orientation))
        return out

    def box_voxels(predictions):
        return [p.data[label_box(*(q.data for q in predictions))] for p in predictions]

    cases = [members(num, (6, 5, 7)) for num in (1, 2, 3, 5)]
    cases.append(members(9, (8, 8, 8), noise=1.0))  # 512 voxels: the fold renumbers mid-way
    cases.append(members(3, (5, 6, 4), labels=(0, 2)))  # ET and TC empty in every member
    cases.append(members(4, (5, 6, 4), labels=(1, 2, 3)))  # WT full in every member
    # the members' label box strictly inside the grid, then touching faces
    # on all three axes; both boxes hold all-zero tuples, whose column 0
    # takes the voxels outside
    inside = framed(members(3, (4, 3, 5)), (9, 8, 10), (2, 3, 4))
    touching = framed(members(5, (4, 6, 3)), (7, 6, 9), (0, 0, 6))
    for predictions in (inside, touching):
        assert (np.stack(box_voxels(predictions)) == 0).all(axis=0).any()
    box = label_box(*(p.data for p in inside))
    assert all(0 < s.start and s.stop < n for s, n in zip(box, inside[0].dims)), box
    box = label_box(*(p.data for p in touching))
    assert box[0].start == 0 and box[1] == slice(0, 6) and box[2].stop == 9, box
    # a box whose every voxel is labelled in some member: the all-zero
    # tuple of the voxels outside is a column of its own
    labelled = framed(members(3, (3, 4, 3), labels=(1, 2, 3)), (8, 8, 8), (2, 2, 2))
    assert np.stack(box_voxels(labelled)).any(axis=0).all()
    background = members(3, (5, 4, 6), labels=(0,))  # the degenerate prior: one-voxel box
    cases += [inside, touching, labelled, background]
    configs = (StapleConfig(), StapleConfig(max_iterations=2), TIGHT)
    for index, predictions in enumerate(cases):
        for config in configs:
            for method in ("staple", "majority"):
                caplog.clear()
                with caplog.at_level("INFO", logger="glioseg.staple"):
                    fused = fuse_labels(predictions, config, method)
                got = [(r.levelname, r.getMessage()) for r in caplog.records]
                caplog.clear()
                with caplog.at_level("INFO", logger="glioseg.staple"):
                    want = fuse_reference(predictions, config, method)
                where = f"case {index}, {config}, {method}"
                assert got == [(r.levelname, r.getMessage()) for r in caplog.records], where
                assert np.array_equal(fused.data, want.data), where
                assert fused.dims == want.dims and fused.spacing == want.spacing
                assert np.array_equal(fused.orientation, orientation)


def test_fuse_builds_its_map_in_disk_order():
    # the writer streams Fortran-ordered planes without a copy; either
    # layout of the members gives the same labels as the voxel reference
    rng = np.random.default_rng(421)
    truth = rng.integers(0, 4, (7, 6, 5))
    members = [np.where(rng.random(truth.shape) < 0.2, rng.integers(0, 4, truth.shape), truth)
               for _ in range(4)]
    for order in ("C", "F"):
        predictions = [LabelVolume(np.asarray(m, dtype=np.uint8, order=order)) for m in members]
        for method in ("staple", "majority"):
            fused = fuse_labels(predictions, method=method)
            assert fused.data.flags.f_contiguous, (order, method)
            want = fuse_reference(predictions, StapleConfig(), method)
            assert np.array_equal(fused.data, want.data), (order, method)


def test_fuse_memory_is_bounded_by_label_tuples():
    # five 128x128x64 members: a [J, N] vote stack per region would be
    # 5 MiB and a float64 weight map 8 MiB each
    rng = np.random.default_rng(420)
    dims = (128, 128, 64)
    grid = np.indices(dims).astype(np.float32)
    radius = np.sqrt(sum((g - d / 2) ** 2 for g, d in zip(grid, dims)))
    del grid
    truth = np.digitize(-radius, [-30.0, -20.0, -10.0]).astype(np.uint8)  # nested shells
    vols = []
    for _ in range(5):
        noisy = np.where(rng.random(dims) < 0.02, rng.integers(0, 4, dims), truth)
        vols.append(LabelVolume(noisy.astype(np.uint8)))
    for method in ("staple", "majority"):
        tracemalloc.start()
        try:
            fused = fuse_labels(vols, method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fused.dims == dims
        assert peak < 16 * 2**20, f"{method}: peak {peak / 2**20:.1f} MiB"


def test_fuse_validation():
    with pytest.raises(ValueError, match="at least one"):
        fuse_labels([])
    rng = np.random.default_rng(413)
    a = random_label_volume(rng, (4, 4, 4))
    b = random_label_volume(rng, (4, 4, 5))
    with pytest.raises(ValueError):
        fuse_labels([a, b])
    c = LabelVolume(a.data, spacing=(1.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="grid"):
        fuse_labels([a, c])
    with pytest.raises(ValueError, match="method"):
        fuse_labels([a], method="average")


def test_config_validation():
    with pytest.raises(ValueError):
        StapleConfig(prior=0.0)
    with pytest.raises(ValueError):
        StapleConfig(prior="mean")
    for tolerance in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="tolerance"):
            StapleConfig(tolerance=tolerance)
    with pytest.raises(ValueError):
        StapleConfig(max_iterations=0)
    with pytest.raises(ValueError):
        StapleConfig(decision_threshold=1.0)
    with pytest.raises(ValueError):
        StapleConfig(initial_sensitivity=1.0)
    for field, value in [
        ("tolerance", "1e-3"),
        ("decision_threshold", None),
        ("initial_sensitivity", True),
        ("prior", True),
        ("prior", ["auto"]),
    ]:
        with pytest.raises(TypeError, match=field):
            StapleConfig(**{field: value})
    assert StapleConfig(tolerance=1).tolerance == 1


def test_max_iterations_must_be_an_integer():
    for value in (2.5, 10.0, "10", True):
        with pytest.raises(TypeError, match="max_iterations"):
            StapleConfig(max_iterations=value)
    assert StapleConfig(max_iterations=np.int64(5)).max_iterations == 5


def test_decisions_validation():
    with pytest.raises(ValueError, match="2-D"):
        RaterDecisions(np.zeros(5, dtype=bool))
    with pytest.raises(ValueError, match="at least one rater"):
        RaterDecisions(np.zeros((0, 5), dtype=bool))
    with pytest.raises(ValueError, match="at least one column"):
        RaterDecisions(np.zeros((3, 0), dtype=bool))
    rows = np.zeros((2, 3), dtype=bool)
    for bad in ([1, 2], [[1, 2, 3]], [1, 0, 2], [1, -2, 2], [1.0, 2.5, 1.0], [1.0, 2.0, 1.0]):
        with pytest.raises(ValueError, match="counts"):
            RaterDecisions(rows, np.array(bad))
